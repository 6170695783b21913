package noc

import (
	"fmt"

	"nnbaton/internal/hardware"
)

// Topology abstracts the on-package interconnect fabric behind the rotating
// transfer. The directional ring (*Ring) implements it with the paper's
// closed forms; mesh and torus instantiate the generic shortest-path engine
// (graphTopology). It declares only what its callers read:
//
//   - MaxHop, TotalHop, LinkContention: the ext-topology table;
//   - D2DScale: mapper.NewFabric, to scale the D2D traffic it prices;
//   - Rounds, HopCycles, RoundSyncCycles: sim.SimulateTrafficOn and
//     sim.Trace, for the rotation time.
//
// The mapper, simulator and engine are therefore topology-agnostic.
type Topology interface {
	// MaxHop is the physical link count of the longest logical rotation hop;
	// the rotation is a synchronized pipeline, so it gates every round.
	MaxHop() int
	// TotalHop is the summed physical link count of one full logical
	// rotation revolution (Chiplets on a healthy ring).
	TotalHop() int
	// LinkContention is the maximum number of rotation-round paths sharing
	// one physical link (1 on a ring, where the paths partition the cycle).
	LinkContention() int
	// D2DScale is the physical-to-logical D2D traffic ratio as an exact
	// rational (TotalHop / logical chiplets); feed it to c3p.Traffic.ScaleD2D.
	D2DScale() (num, den int64)
	// Rounds is the number of rotation rounds for every chiplet to observe
	// every chunk: logical chiplets − 1.
	Rounds() int
	// RoundSyncCycles is the fixed synchronization latency of one rotation
	// round (serializer/PHY handshakes along the gating path).
	RoundSyncCycles() int64
	// HopCycles is the cycle cost of one synchronized logical-neighbor
	// transfer of the given size.
	HopCycles(bytes int64) int64
}

// Interface conformance of the closed-form ring and the generic engine.
var (
	_ Topology = (*Ring)(nil)
	_ Topology = (*graphTopology)(nil)
)

// NewTopology builds a healthy fabric of the given kind over n chiplets.
func NewTopology(kind hardware.Topology, n int) (Topology, error) {
	return NewTopologyUnder(kind, n, hardware.FaultMask{})
}

// NewTopologyUnder builds the fabric of an effective configuration with
// `chiplets` logical participants under a fault mask: dead positions keep
// relaying traffic but are no longer endpoints, so routed paths detour over
// them. The ring dispatches to the closed-form *Ring (NewRingUnder), keeping
// the default path bit-identical to the pre-topology implementation; mesh
// and torus instantiate the generic shortest-path engine.
func NewTopologyUnder(kind hardware.Topology, chiplets int, mask hardware.FaultMask) (Topology, error) {
	switch kind {
	case hardware.TopoRing:
		return NewRingUnder(chiplets, mask)
	case hardware.TopoMesh, hardware.TopoTorus:
		return newGraphTopology(kind, chiplets, mask, hardware.MaxChiplets)
	}
	return nil, fmt.Errorf("noc: %w", kind.Validate())
}

// NewGenericRingUnder builds the *generic* graph engine on a directional
// ring graph — the same fabric NewRingUnder models in closed form. It exists
// for the oracle equivalence suite: the generic engine must reproduce every
// closed-form Topology observable of the ring exactly, healthy and
// under every fault mask. It accepts up to 64 positions so the property test
// can sweep far past the production MaxChiplets bound.
func NewGenericRingUnder(chiplets int, mask hardware.FaultMask) (Topology, error) {
	return newGraphTopology(hardware.TopoRing, chiplets, mask, 64)
}

// NewInterconnect is the one shared constructor of the interconnect pair
// behind a hardware configuration: the topology named by hw.Topology over
// hw.Chiplets logical participants (rerouted around the mask's dead
// positions) and the DRAM crossbar. Every evaluation path — the simulator,
// the trace, the mapper's search and the exhaustive reference — builds its
// fabric here, so they can never disagree on its shape.
func NewInterconnect(hw hardware.Config, mask hardware.FaultMask) (Topology, *Crossbar, error) {
	topo, err := NewTopologyUnder(hw.Topology, hw.Chiplets, mask)
	if err != nil {
		return nil, nil, err
	}
	xbar, err := NewCrossbar(hw.Chiplets)
	if err != nil {
		return nil, nil, err
	}
	return topo, xbar, nil
}

// graphTopology is the adjacency/hop-matrix engine behind mesh and torus: an
// explicit physical graph, BFS all-pairs shortest paths, and a canonical
// deterministic route per logical rotation hop. Dead positions stay in the
// graph as relays (their D2D PHY survives, as on the degraded ring) but are
// excluded from the endpoint set. All hop structure is precomputed at
// construction; the per-candidate query methods are allocation-free.
type graphTopology struct {
	chiplets   int // logical participants
	maxHop     int // longest logical rotation hop
	totalHop   int // summed rotation hop lengths over one revolution
	contention int // busiest physical link across the rotation paths
}

// gridDims factors n into the most square rows×cols grid (rows ≤ cols):
// 8 → 2×4, 6 → 2×3, 4 → 2×2, primes → 1×n.
func gridDims(n int) (rows, cols int) {
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			rows, cols = r, n/r
		}
	}
	return rows, cols
}

// adjacency builds the physical neighbor lists of one fabric kind over
// `positions` nodes, sorted ascending so routing tie-breaks are
// deterministic. The ring is directed (clockwise forwarding only); mesh and
// torus links are bidirectional.
func adjacency(kind hardware.Topology, positions int) [][]int {
	adj := make([][]int, positions)
	addEdge := func(a, b int) {
		for _, n := range adj[a] {
			if n == b {
				return
			}
		}
		adj[a] = append(adj[a], b)
	}
	if kind == hardware.TopoRing {
		for i := 0; i < positions; i++ {
			if positions > 1 {
				addEdge(i, (i+1)%positions)
			}
		}
		return adj
	}
	rows, cols := gridDims(positions)
	id := func(r, c int) int { return r*cols + c }
	link := func(a, b int) { addEdge(a, b); addEdge(b, a) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				link(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				link(id(r, c), id(r+1, c))
			}
		}
	}
	if kind == hardware.TopoTorus {
		// Wraparound links; a 2-long dimension's wrap link coincides with
		// the mesh link and addEdge dedupes it.
		for r := 0; r < rows; r++ {
			if cols > 1 {
				link(id(r, cols-1), id(r, 0))
			}
		}
		for c := 0; c < cols; c++ {
			if rows > 1 {
				link(id(rows-1, c), id(0, c))
			}
		}
	}
	for i := range adj {
		sortInts(adj[i])
	}
	return adj
}

// sortInts is a tiny insertion sort — neighbor lists hold at most 4 entries.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// bfsDist returns the shortest-path hop counts from src over adj (-1 when
// unreachable, which no supported fabric produces).
func bfsDist(adj [][]int, src int) []int {
	d := make([]int, len(adj))
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if d[v] < 0 {
				d[v] = d[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return d
}

// canonicalPath walks the deterministic shortest path from u to v: at each
// node it steps to the lowest-indexed neighbor that stays on a shortest
// path. Both the contention analysis and any future per-link accounting use
// this one route, so link loads are a pure function of the fabric.
func canonicalPath(adj [][]int, dist [][]int, u, v int) []int {
	path := []int{u}
	for u != v {
		for _, n := range adj[u] {
			if dist[n][v] == dist[u][v]-1 {
				u = n
				break
			}
		}
		path = append(path, u)
	}
	return path
}

// newGraphTopology builds the generic engine for `chiplets` logical
// participants of a fabric kind under a fault mask, with up to maxPositions
// physical nodes. Mirrors NewRingUnder's contract: the mask's surviving
// positions must match the effective chiplet count, and the zero mask is the
// healthy fabric.
func newGraphTopology(kind hardware.Topology, chiplets int, mask hardware.FaultMask, maxPositions int) (*graphTopology, error) {
	positions := chiplets
	if !mask.IsZero() {
		positions = int(mask.Chiplets)
	}
	if positions < 1 || positions > maxPositions {
		return nil, fmt.Errorf("noc: %s supports 1-%d positions, got %d", kind, maxPositions, positions)
	}
	alive := make([]int, 0, positions)
	for i := 0; i < positions; i++ {
		if mask.Dead&(1<<i) == 0 {
			alive = append(alive, i)
		}
	}
	if len(alive) != chiplets {
		return nil, fmt.Errorf("noc: mask %s leaves %d surviving chiplets, effective config has %d",
			mask, len(alive), chiplets)
	}

	adj := adjacency(kind, positions)
	dist := make([][]int, positions)
	for i := range dist {
		dist[i] = bfsDist(adj, i)
	}
	g := &graphTopology{chiplets: chiplets, maxHop: 1, totalHop: chiplets, contention: 1}
	if chiplets >= 2 {
		// Rotation structure: logical neighbor k → k+1 in ascending alive
		// order, each routed canonically; a round runs all paths at once.
		g.maxHop, g.totalHop = 0, 0
		links := map[[2]int]int{}
		for k := 0; k < chiplets; k++ {
			u, v := alive[k], alive[(k+1)%chiplets]
			h := dist[u][v]
			if h <= 0 {
				return nil, fmt.Errorf("noc: %s over %d positions is disconnected at %d→%d", kind, positions, u, v)
			}
			g.totalHop += h
			g.maxHop = max(g.maxHop, h)
			p := canonicalPath(adj, dist, u, v)
			for i := 1; i < len(p); i++ {
				e := [2]int{p[i-1], p[i]}
				links[e]++
				g.contention = max(g.contention, links[e])
			}
		}
	}
	return g, nil
}

// MaxHop implements Topology.
func (g *graphTopology) MaxHop() int { return g.maxHop }

// TotalHop implements Topology.
func (g *graphTopology) TotalHop() int { return g.totalHop }

// LinkContention implements Topology.
func (g *graphTopology) LinkContention() int { return g.contention }

// D2DScale implements Topology: (TotalHop, chiplets), the average
// physical links per logical rotation byte as an exact rational.
func (g *graphTopology) D2DScale() (num, den int64) {
	return int64(g.totalHop), int64(g.chiplets)
}

// Rounds implements Topology.
func (g *graphTopology) Rounds() int { return max(0, g.chiplets-1) }

// roundGate is the physical link-transfer depth gating one synchronized
// round: the longest routed hop, extended by store-and-forward serialization
// on the busiest shared link. On a ring the rotation paths partition the
// cycle (contention 1), so the gate reduces to MaxHop — the closed form.
func (g *graphTopology) roundGate() int { return g.maxHop + g.contention - 1 }

// RoundSyncCycles implements Topology.
func (g *graphTopology) RoundSyncCycles() int64 {
	return int64(g.roundGate()) * HopLatencyCycles
}

// HopCycles implements Topology.
func (g *graphTopology) HopCycles(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	per := int64(float64(bytes)/hardware.D2DBytesPerCycle + 0.999999)
	return per * int64(g.roundGate())
}
