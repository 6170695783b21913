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
	Chiplets      int
	BytesPerCycle float64 // per directional link (GRS)
	// hops[k] is the number of physical links the k-th logical hop
	// traverses; nil means a healthy ring (every hop is one link).
	hops []int
}

// NewRing returns a ring over n chiplets with the default GRS link bandwidth.
func NewRing(n int) (*Ring, error) {
	if n < 1 || n > 8 {
		return nil, fmt.Errorf("noc: ring supports 1-8 chiplets, got %d", n)
	}
	return &Ring{Chiplets: n, BytesPerCycle: hardware.D2DBytesPerCycle}, nil
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
	if positions < 1 || positions > 8 {
		return nil, fmt.Errorf("noc: fault mask describes %d positions, ring supports 1-8", positions)
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

// Kind implements Topology.
func (r *Ring) Kind() hardware.Topology { return hardware.TopoRing }

// NumChiplets implements Topology.
func (r *Ring) NumChiplets() int { return r.Chiplets }

// Hops implements Topology: the physical link count of the directed route
// from one logical endpoint forward to another (0 when from == to).
func (r *Ring) Hops(from, to int) int {
	if r.hops == nil {
		return (to - from + r.Chiplets) % r.Chiplets
	}
	h := 0
	for k := from; k != to; k = (k + 1) % r.Chiplets {
		h += r.hops[k]
	}
	return h
}

// LinkContention implements Topology: the ring's rotation paths partition
// the cycle's physical links, so no link ever carries two rounds' chunks.
func (r *Ring) LinkContention() int { return 1 }

// Diameter implements Topology: the farthest endpoint pair along the
// directed ring (Chiplets−1 when healthy).
func (r *Ring) Diameter() int {
	d := 0
	for from := 0; from < r.Chiplets; from++ {
		for to := 0; to < r.Chiplets; to++ {
			d = max(d, r.Hops(from, to))
		}
	}
	return d
}

// BroadcastCycles implements Topology: the chunk travels the diameter with a
// per-link handshake.
func (r *Ring) BroadcastCycles(bytes int64) int64 {
	d := r.Diameter()
	if bytes <= 0 || d == 0 {
		return 0
	}
	per := int64(float64(bytes)/r.BytesPerCycle + 0.999999)
	return per*int64(d) + int64(d)*HopLatencyCycles
}

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

// Degraded reports whether any logical hop detours over relay links.
func (r *Ring) Degraded() bool { return r.hops != nil }

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

// RotationCycles returns the cycles to fully rotate per-chiplet chunks of the
// given size. All links transfer concurrently each round, so the time is
// rounds × per-hop time.
func (r *Ring) RotationCycles(chunkBytes int64) int64 {
	if r.Chiplets <= 1 || chunkBytes <= 0 {
		return 0
	}
	return int64(r.Rounds()) * r.HopCycles(chunkBytes)
}

// RotationTrafficBytes returns the total physical link bytes moved by a full
// rotation of per-chiplet chunks: every round each of the N_P chunks
// advances one logical hop, so a round moves chunk × TotalHop link bytes
// (chunk × N_P on a healthy ring).
func (r *Ring) RotationTrafficBytes(chunkBytes int64) int64 {
	if chunkBytes <= 0 {
		return 0
	}
	return int64(r.Rounds()) * chunkBytes * int64(r.TotalHop())
}

// HopCycles returns the cycles for one logical chiplet-to-neighbor transfer.
// On a degraded ring the longest detour gates the synchronized round:
// store-and-forward through each relay repeats the link transfer.
func (r *Ring) HopCycles(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	per := int64(float64(bytes)/r.BytesPerCycle + 0.999999)
	return per * int64(r.MaxHop())
}

// Crossbar attaches chiplets to the package DRAM channels (§IV-C integrates
// one DRAM per chiplet so that four chiplets see four DRAMs).
type Crossbar struct {
	Channels      int
	BytesPerCycle float64 // per DRAM channel
}

// NewCrossbar returns a crossbar with one channel per chiplet at the default
// DRAM channel bandwidth.
func NewCrossbar(chiplets int) (*Crossbar, error) {
	if chiplets < 1 {
		return nil, fmt.Errorf("noc: need at least one channel, got %d", chiplets)
	}
	return &Crossbar{Channels: chiplets, BytesPerCycle: hardware.DRAMBytesPerCycle}, nil
}

// ChannelShare returns each chiplet's share of the fixed package DRAM
// system: the package-level bandwidth divided across the channels. The
// simulator streams each chiplet's loads at this rate without mutating the
// crossbar's per-channel BytesPerCycle.
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
