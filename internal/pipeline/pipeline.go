// Package pipeline extends NN-Baton with inter-layer scheduling in the
// spirit of Tangram's cascaded layer pipeline (cited in §VII-A): consecutive
// layers whose intermediate feature map fits the package's aggregate A-L2
// capacity are fused into a group, keeping the intermediate activations
// on-package and eliding their DRAM writeback and re-read.
//
// This is an extension beyond the paper's layer-wise evaluation; the
// unfused schedule reproduces the paper's numbers exactly.
package pipeline

import (
	"fmt"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/workload"
)

// Group is a run of fused layers, indices [Start, End] inclusive.
type Group struct{ Start, End int }

// Len returns the number of layers in the group.
func (g Group) Len() int { return g.End - g.Start + 1 }

// Schedule is a fusion plan over a model.
type Schedule struct {
	Model  workload.Model
	Groups []Group
}

// FusedEdges returns the number of producer→consumer edges kept on-package.
func (s Schedule) FusedEdges() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Len() - 1
	}
	return n
}

// String summarizes the plan.
func (s Schedule) String() string {
	return fmt.Sprintf("%s: %d groups, %d fused edges", s.Model.Name, len(s.Groups), s.FusedEdges())
}

// chainable reports whether consumer directly consumes producer's output
// (channel counts and planar extents line up) — branching blocks (e.g.
// ResNet's _branch1 projections) break the chain.
func chainable(producer, consumer workload.Layer) bool {
	if consumer.CI != producer.CO {
		return false
	}
	needH := workload.InExtent(consumer.HO, consumer.R, consumer.StrideH) - 2*consumer.PadH
	needW := workload.InExtent(consumer.WO, consumer.S, consumer.StrideW) - 2*consumer.PadW
	// Pooling between the layers shrinks the plane; allow the consumer to
	// need at most the producer's output.
	return needH <= producer.HO && needW <= producer.WO && needH > 0 && needW > 0
}

// Plan greedily fuses consecutive chainable layers while every intermediate
// feature map of the group fits half the package's aggregate A-L2 capacity
// (the other half keeps streaming the group's external input).
func Plan(m workload.Model, hw hardware.Config) (Schedule, error) {
	if err := hw.Validate(); err != nil {
		return Schedule{}, err
	}
	if len(m.Layers) == 0 {
		return Schedule{}, fmt.Errorf("pipeline: model %s has no layers", m.Name)
	}
	budget := int64(hw.Chiplets) * int64(hw.AL2Bytes) / 2
	sch := Schedule{Model: m}
	cur := Group{Start: 0, End: 0}
	for i := 1; i < len(m.Layers); i++ {
		prev, next := m.Layers[i-1], m.Layers[i]
		if chainable(prev, next) && prev.OutputBytes() <= budget {
			cur.End = i
			continue
		}
		sch.Groups = append(sch.Groups, cur)
		cur = Group{Start: i, End: i}
	}
	sch.Groups = append(sch.Groups, cur)
	return sch, nil
}

// Apply rewrites per-layer traffic records for a fusion schedule: on every
// fused edge, the producer's DRAM output writeback and the consumer's DRAM
// activation reads (up to the intermediate volume) move into A-L2 traffic.
// The input slice is not modified.
func Apply(sch Schedule, perLayer []c3p.Traffic) ([]c3p.Traffic, error) {
	if len(perLayer) != len(sch.Model.Layers) {
		return nil, fmt.Errorf("pipeline: %d traffic records for %d layers",
			len(perLayer), len(sch.Model.Layers))
	}
	out := make([]c3p.Traffic, len(perLayer))
	copy(out, perLayer)
	for _, g := range sch.Groups {
		for i := g.Start; i < g.End; i++ {
			inter := sch.Model.Layers[i].OutputBytes()
			// Producer keeps the output on-package.
			saveW := min(out[i].DRAMOutWrites, inter)
			out[i].DRAMOutWrites -= saveW
			out[i].AL2Writes += saveW
			// Consumer reads it from A-L2 instead of DRAM.
			saveR := min(out[i+1].DRAMActReads, inter)
			out[i+1].DRAMActReads -= saveR
			out[i+1].AL2Reads += saveR
		}
	}
	return out, nil
}

// Savings compares the fused and unfused DRAM volumes of a schedule and,
// when priced by Study, their energies.
type Savings struct {
	Schedule       Schedule
	UnfusedDRAM    int64
	FusedDRAM      int64
	SavedDRAMBytes int64
	Unfused, Fused energy.Breakdown
}

// Evaluate applies the schedule and reports the DRAM savings.
func Evaluate(sch Schedule, perLayer []c3p.Traffic) (Savings, []c3p.Traffic, error) {
	fused, err := Apply(sch, perLayer)
	if err != nil {
		return Savings{}, nil, err
	}
	sv := Savings{Schedule: sch}
	for i := range perLayer {
		sv.UnfusedDRAM += perLayer[i].DRAMBytes()
		sv.FusedDRAM += fused[i].DRAMBytes()
	}
	sv.SavedDRAMBytes = sv.UnfusedDRAM - sv.FusedDRAM
	return sv, fused, nil
}

// Study plans the fusion schedule of a layer-wise mapped model and prices
// both schedules through the pricing kernel of hw's fabric, so the unfused
// energy is exactly the layer-wise evaluation's. layers are the per-layer
// options; an unmapped layer contributes an empty record and never fuses
// usefully.
func Study(m workload.Model, hw hardware.Config, layers []mapper.Option, cm *hardware.CostModel) (Savings, error) {
	sch, err := Plan(m, hw)
	if err != nil {
		return Savings{}, err
	}
	fab, err := mapper.NewFabric(hw, hardware.FaultMask{}, cm)
	if err != nil {
		return Savings{}, err
	}
	perLayer := make([]c3p.Traffic, len(m.Layers))
	byName := make(map[string]c3p.Traffic, len(layers))
	for _, o := range layers {
		byName[o.Analysis.Layer.Name] = o.Analysis.Traffic()
	}
	for i, l := range m.Layers {
		perLayer[i] = byName[l.Name]
	}
	sv, fused, err := Evaluate(sch, perLayer)
	if err != nil {
		return Savings{}, err
	}
	for i := range perLayer {
		sv.Unfused = sv.Unfused.Add(fab.Energy(&perLayer[i], &hw))
		sv.Fused = sv.Fused.Add(fab.Energy(&fused[i], &hw))
	}
	return sv, nil
}
