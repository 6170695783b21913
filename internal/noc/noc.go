// Package noc models the on-package interconnect substrate of §III-A3
// behind the Topology interface: the paper's directional ring connecting
// 1–8 chiplets for the rotating transfer (closed forms, the default), a 2D
// mesh and a torus (generic shortest-path engine, see topology.go), plus a
// crossbar attaching the chiplets to the package DRAMs.
package noc

import (
	"fmt"

	"nnbaton/internal/hardware"
)

// HopLatencyCycles is the fixed synchronization latency of one rotation
// round on the directional ring (serializer, D2D PHY and handshake).
const HopLatencyCycles = 20

// Ring is the directional on-package ring. Chiplets counts the *logical*
// participants: on a degraded fabric (see NewRingUnder) dead or bypassed
// positions still relay traffic, so a logical hop between adjacent surviving
// chiplets may traverse several physical links.
type Ring struct {
	Chiplets int
	// hops[k] is the number of physical links the k-th logical hop
	// traverses; nil means a healthy ring (every hop is one link).
	hops []int
}

// NewRing returns a ring over n chiplets. Every link moves
// hardware.D2DBytesPerCycle (GRS).
func NewRing(n int) (*Ring, error) {
	if n < 1 || n > hardware.MaxChiplets {
		return nil, fmt.Errorf("noc: ring supports 1-%d chiplets, got %d", hardware.MaxChiplets, n)
	}
	return &Ring{Chiplets: n}, nil
}

// NewRingUnder builds the rotation ring of an effective configuration with
// `chiplets` logical participants under a fault mask: the mask's dead
// positions are bypassed (their D2D relay survives), so each logical hop
// detours over the intervening physical links. The zero mask yields the
// healthy ring. The mask's surviving-position count must equal chiplets —
// the effective configuration and the mask describe the same fabric.
func NewRingUnder(chiplets int, mask hardware.FaultMask) (*Ring, error) {
	if mask.IsZero() {
		return NewRing(chiplets)
	}
	positions := int(mask.Chiplets)
	if positions < 1 || positions > hardware.MaxChiplets {
		return nil, fmt.Errorf("noc: fault mask describes %d positions, ring supports 1-%d", positions, hardware.MaxChiplets)
	}
	var alive []int
	for i := 0; i < positions; i++ {
		if mask.Dead&(1<<i) == 0 {
			alive = append(alive, i)
		}
	}
	if len(alive) != chiplets {
		return nil, fmt.Errorf("noc: mask %s leaves %d surviving chiplets, effective config has %d",
			mask, len(alive), chiplets)
	}
	r, err := NewRing(chiplets)
	if err != nil {
		return nil, err
	}
	if chiplets < 2 {
		return r, nil // a single survivor never rotates
	}
	hops := make([]int, chiplets)
	uniform := true
	for k, cur := range alive {
		next := alive[(k+1)%chiplets]
		hops[k] = (next - cur + positions) % positions
		if hops[k] == 0 {
			hops[k] = positions // full loop back to itself (unreachable for chiplets >= 2)
		}
		if hops[k] != 1 {
			uniform = false
		}
	}
	if !uniform {
		r.hops = hops
	}
	return r, nil
}

// LinkContention implements Topology: the ring's rotation paths partition
// the cycle's physical links, so no link ever carries two rounds' chunks.
func (r *Ring) LinkContention() int { return 1 }

// MaxHop returns the physical link count of the longest logical hop (1 on a
// healthy ring). The rotation is a synchronized pipeline, so the longest hop
// gates every round.
func (r *Ring) MaxHop() int {
	m := 1
	for _, h := range r.hops {
		m = max(m, h)
	}
	return m
}

// TotalHop returns the summed physical link count of one full logical
// revolution (Chiplets on a healthy ring).
func (r *Ring) TotalHop() int {
	if r.hops == nil {
		return r.Chiplets
	}
	t := 0
	for _, h := range r.hops {
		t += h
	}
	return t
}

// D2DScale returns the physical-to-logical D2D traffic ratio as an exact
// rational (TotalHop / Chiplets): every logical link byte of a rotation
// round is carried by TotalHop/Chiplets physical links on average. Healthy
// rings return (n, n), i.e. 1.
func (r *Ring) D2DScale() (num, den int64) {
	return int64(r.TotalHop()), int64(r.Chiplets)
}

// RoundSyncCycles returns the fixed synchronization latency of one rotation
// round: each physical link on the longest detour adds a serializer/PHY
// handshake.
func (r *Ring) RoundSyncCycles() int64 {
	return int64(r.MaxHop()) * HopLatencyCycles
}

// Rounds returns the number of rotation rounds needed for every chiplet to
// observe every chunk: N_P − 1.
func (r *Ring) Rounds() int { return max(0, r.Chiplets-1) }

// HopCycles returns the cycles for one logical chiplet-to-neighbor transfer.
// On a degraded ring the longest detour gates the synchronized round:
// store-and-forward through each relay repeats the link transfer.
func (r *Ring) HopCycles(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	per := int64(float64(bytes)/hardware.D2DBytesPerCycle + 0.999999)
	return per * int64(r.MaxHop())
}

// Crossbar attaches chiplets to the package DRAM channels (§IV-C integrates
// one DRAM per chiplet so that four chiplets see four DRAMs).
type Crossbar struct {
	Channels int
}

// NewCrossbar returns a crossbar with one channel per chiplet.
func NewCrossbar(chiplets int) (*Crossbar, error) {
	if chiplets < 1 {
		return nil, fmt.Errorf("noc: need at least one channel, got %d", chiplets)
	}
	return &Crossbar{Channels: chiplets}, nil
}

// ChannelShare returns each chiplet's share of the fixed package DRAM
// system: the package-level bandwidth divided across the channels. The
// simulator streams each chiplet's loads at this rate.
func (x *Crossbar) ChannelShare() float64 {
	return hardware.PackageDRAMBytesPerCycle / float64(x.Channels)
}

// LoadCyclesAt returns the cycles to satisfy per-chiplet DRAM demands at
// the channel bandwidth bytesPerCycle (e.g. the per-chiplet ChannelShare).
// Each chiplet primarily streams from its own channel; conflictDegree is the
// maximum number of chiplets contending for the same data (Fig 8) and
// serializes that fraction of the traffic.
func LoadCyclesAt(perChipletBytes int64, bytesPerCycle float64, conflictDegree int) int64 {
	if perChipletBytes <= 0 {
		return 0
	}
	if conflictDegree < 1 {
		conflictDegree = 1
	}
	eff := bytesPerCycle / float64(conflictDegree)
	return int64(float64(perChipletBytes)/eff + 0.999999)
}
