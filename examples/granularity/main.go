// Chiplet-granularity exploration (the Fig 14 workflow): given a 2048-MAC
// performance requirement and a 2 mm² chiplet area budget, decide how many
// chiplets the accelerator should be split into for AlexNet, and report the
// energy/area/EDP trade-off per granularity.
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
	model := nnbaton.AlexNet(224)
	const (
		macBudget = 2048
		areaLimit = 2.0 // mm² per chiplet
	)

	res, err := tool.Granularity(context.Background(), model, nnbaton.TableIISpace(), macBudget, areaLimit)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d compute allocations of %d MACs, %s, %.1f mm² chiplet limit\n\n",
		len(res.Points), macBudget, model.Name, areaLimit)

	free := res.BestPerChipletCount(false)
	bound := res.BestPerChipletCount(true)
	chipletCounts := make([]int, 0, len(free))
	for np := range free {
		chipletCounts = append(chipletCounts, np)
	}
	sort.Ints(chipletCounts)

	fmt.Printf("%-9s %-11s %-10s %-11s %-10s %-8s\n",
		"chiplets", "best tuple", "energy uJ", "w/ 2mm²", "runtime ms", "mm²")
	for _, np := range chipletCounts {
		p := free[np]
		row := fmt.Sprintf("%-9d %-11s %-10.1f", np, p.HW.Tuple(), p.Energy.Total()/1e6)
		if b, ok := bound[np]; ok {
			row += fmt.Sprintf(" %-11s %-10.3f %-8.2f", b.HW.Tuple(), b.Seconds*1e3, b.ChipletAreaMM2)
		} else {
			row += " none (area exceeds the budget)"
		}
		fmt.Println(row)
	}

	if best, ok := res.BestEDP(); ok {
		fmt.Printf("\nrecommended implementation (lowest EDP under %.1f mm²): %s\n", areaLimit, best)
	} else {
		fmt.Println("\nno implementation meets the area constraint")
	}

	// Manufacturing-cost extension: the same study priced under a 16nm-class
	// process, showing the cost side of the granularity trade-off.
	fmt.Println("\nmanufacturing cost per package (Murphy yield + MCM assembly):")
	costed, err := res.WithCosts(nnbaton.DefaultProcess())
	if err != nil {
		log.Fatal(err)
	}
	cheapest := map[int]nnbaton.CostedPoint{}
	for _, cp := range costed {
		np := cp.HW.Chiplets
		if cur, ok := cheapest[np]; !ok || cp.Cost.TotalUSD < cur.Cost.TotalUSD {
			cheapest[np] = cp
		}
	}
	for _, np := range chipletCounts {
		if cp, ok := cheapest[np]; ok {
			fmt.Printf("  %d chiplets: %s\n", np, cp.Cost)
		}
	}

	// At mm²-scale accelerator dies, yield is near-perfect and assembly
	// dominates, so fewer chiplets are cheaper. The "area wall" that
	// motivates chiplets (§II-B) appears at reticle-scale dies:
	proc := nnbaton.DefaultProcess()
	mono, err1 := proc.PackageCost(1, 400)
	quad, err2 := proc.PackageCost(4, 100)
	if err1 == nil && err2 == nil {
		fmt.Printf("\nreticle-scale contrast: 1x400mm² = $%.0f vs 4x100mm² = $%.0f\n",
			mono.TotalUSD, quad.TotalUSD)
	}
}
