// Full pre-design sweep (the Fig 15 workflow) on a reduced space: cross the
// compute allocations of a 2048-MAC budget with a grid of memory
// allocations, prune invalid points, and report the area-vs-EDP Pareto
// front and the recommended design under a 2.5 mm² chiplet constraint.
//
// The reduced space keeps this example interactive; pass the full Table II
// space (nnbaton.TableIISpace()) for the paper-scale sweep.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"nnbaton"
)

func main() {
	tool := nnbaton.New()
	model := nnbaton.VGG16(224)

	space := nnbaton.Space{
		Vector:     []int{8, 16},
		Lanes:      []int{8, 16},
		Cores:      []int{2, 4, 8},
		Chiplets:   []int{1, 2, 4},
		OL1PerLane: []int{96, 144},
		AL1:        []int{1024, 4096, 16384},
		WL1:        []int{8192, 32768, 131072},
		AL2:        []int{32768, 65536, 131072},
	}

	res, err := tool.Explore(context.Background(), model, space, 2048, 2.5)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: swept %d hardware points, %d valid\n\n", model.Name, res.Swept, len(res.Points))

	front := res.ParetoFront()
	sort.Slice(front, func(i, j int) bool { return front[i].ChipletAreaMM2 < front[j].ChipletAreaMM2 })
	fmt.Println("area-vs-EDP Pareto front (designs without redundant memory):")
	for _, p := range front {
		fmt.Printf("  %-10s area %.2f mm²  EDP %.3g pJ*s  %s\n",
			p.HW.Tuple(), p.ChipletAreaMM2, p.EDP(), p.HW)
	}

	if res.HasBest {
		fmt.Printf("\nrecommended under 2.5 mm²: %s\n", res.Best.HW)
		fmt.Printf("  energy %.2f mJ, runtime %.3f ms, EDP %.3g pJ*s\n",
			res.Best.Energy.Total()/1e9, res.Best.Seconds*1e3, res.Best.EDP())
	}
}
