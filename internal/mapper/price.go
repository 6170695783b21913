package mapper

import (
	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/sim"
	"nnbaton/internal/workload"
)

// Fabric is the one pricing kernel every mapping evaluation goes through:
// the interconnect of one (hardware, fault mask) pair — topology, DRAM
// crossbar and the topology's physical-to-logical D2D scale — plus the cost
// model. It applies the pricing rule in one place: energy charges the
// physical die-to-die bytes the fabric moves (detours and multi-hop
// rotations included), while the simulator consumes the logical traffic
// record, since the topology internalizes its hop structure on the time
// side. A Fabric is immutable, so one value serves concurrent callers.
type Fabric struct {
	topo     noc.Topology
	xbar     *noc.Crossbar
	num, den int64
	cm       *hardware.CostModel
}

// NewFabric builds the pricing kernel for hw's topology and chiplet count,
// rerouted around the mask's dead positions (the zero mask is the healthy
// fabric). Buffer sizes are not part of it, so one fabric serves every
// memory allocation of a compute configuration.
func NewFabric(hw hardware.Config, mask hardware.FaultMask, cm *hardware.CostModel) (*Fabric, error) {
	topo, xbar, err := noc.NewInterconnect(hw, mask)
	if err != nil {
		return nil, err
	}
	num, den := topo.D2DScale()
	return &Fabric{topo: topo, xbar: xbar, num: num, den: den, cm: cm}, nil
}

// Energy prices a logical traffic record (or an admissible floor of one) at
// hw's buffer sizes. On its own it is the search's pre-simulation stage.
func (f *Fabric) Energy(tr *c3p.Traffic, hw *hardware.Config) energy.Breakdown {
	if f.num != f.den {
		scaled := tr.ScaleD2D(f.num, f.den)
		return energy.Price(&scaled, hw, f.cm)
	}
	return energy.Price(tr, hw, f.cm)
}

// Cycles simulates the analysis' mapping against the logical traffic record.
func (f *Fabric) Cycles(a *c3p.Analysis, tr c3p.Traffic) (int64, error) {
	res, err := sim.SimulateTrafficOn(f.topo, f.xbar, a, tr)
	return res.Cycles, err
}

// Evaluate analyzes one mapping of l on hw through C³P and prices the
// analysis' own traffic record.
func (f *Fabric) Evaluate(l workload.Layer, hw hardware.Config, m mapping.Mapping) (Option, error) {
	a, err := c3p.Analyze(l, hw, m)
	if err != nil {
		return Option{}, err
	}
	tr := a.Traffic()
	cycles, err := f.Cycles(a, tr)
	if err != nil {
		return Option{}, err
	}
	return Option{Analysis: a, Energy: f.Energy(&tr, &hw), Cycles: cycles}, nil
}
