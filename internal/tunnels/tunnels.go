// Package tunnels selects and manages the physical tunnels (pre-
// established paths) over which FFC and PCF route traffic. The
// selection strategy follows the paper's evaluation (§5): tunnels are
// chosen to be as link-disjoint as possible, preferring shorter paths
// when there is a choice, falling back to link-penalized shortest paths
// when fully disjoint tunnels are exhausted.
package tunnels

import (
	"fmt"
	"math"
	"sort"

	"pcf/internal/topology"
)

// ID identifies a tunnel within a Set.
type ID int

// Tunnel is a pre-selected path for one source-destination pair.
type Tunnel struct {
	ID   ID
	Pair topology.Pair
	Path topology.Path
}

// Set is a collection of tunnels indexed by pair.
type Set struct {
	g       *topology.Graph
	tunnels []Tunnel
	byPair  map[topology.Pair][]ID
}

// NewSet returns an empty tunnel set over graph g.
func NewSet(g *topology.Graph) *Set {
	return &Set{g: g, byPair: make(map[topology.Pair][]ID)}
}

// Graph returns the underlying topology.
func (s *Set) Graph() *topology.Graph { return s.g }

// Add registers a tunnel for the pair along path and returns its ID.
// It validates that the path actually runs from pair.Src to pair.Dst.
func (s *Set) Add(pair topology.Pair, path topology.Path) (ID, error) {
	if len(path.Arcs) == 0 {
		return 0, fmt.Errorf("tunnels: empty path for %v", pair)
	}
	from, _ := s.g.ArcEnds(path.Arcs[0])
	_, to := s.g.ArcEnds(path.Arcs[len(path.Arcs)-1])
	if from != pair.Src || to != pair.Dst {
		return 0, fmt.Errorf("tunnels: path runs %d->%d, want %v", from, to, pair)
	}
	at := from
	for _, a := range path.Arcs {
		f, t := s.g.ArcEnds(a)
		if f != at {
			return 0, fmt.Errorf("tunnels: discontinuous path for %v", pair)
		}
		at = t
	}
	id := ID(len(s.tunnels))
	s.tunnels = append(s.tunnels, Tunnel{ID: id, Pair: pair, Path: path})
	s.byPair[pair] = append(s.byPair[pair], id)
	return id, nil
}

// MustAdd is Add that panics on error; for hand-built gadget fixtures
// where a bad path is a programmer error. The Must* naming places it on
// the pcflint/nopanic allowlist (DESIGN.md §10); data paths use Add.
func (s *Set) MustAdd(pair topology.Pair, path topology.Path) ID {
	id, err := s.Add(pair, path)
	if err != nil {
		panic(err)
	}
	return id
}

// Len reports the total number of tunnels.
func (s *Set) Len() int { return len(s.tunnels) }

// Tunnel returns the tunnel with the given ID.
func (s *Set) Tunnel(id ID) Tunnel { return s.tunnels[id] }

// ForPair returns the tunnel IDs for a pair, in insertion order. The
// returned slice must not be modified.
func (s *Set) ForPair(p topology.Pair) []ID { return s.byPair[p] }

// Pairs returns all pairs that have at least one tunnel, in a
// deterministic order.
func (s *Set) Pairs() []topology.Pair {
	out := make([]topology.Pair, 0, len(s.byPair))
	for p := range s.byPair {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// UsingLink returns the tunnels (across all pairs) that traverse link l.
func (s *Set) UsingLink(l topology.LinkID) []ID {
	var out []ID
	for _, t := range s.tunnels {
		if t.Path.UsesLink(l) {
			out = append(out, t.ID)
		}
	}
	return out
}

// MaxShared returns p_st for the pair: the maximum number of the
// pair's tunnels that share a single link (FFC's structure parameter).
func (s *Set) MaxShared(p topology.Pair) int {
	count := make(map[topology.LinkID]int)
	for _, id := range s.byPair[p] {
		seen := make(map[topology.LinkID]bool)
		for _, a := range s.tunnels[id].Path.Arcs {
			l := topology.LinkOf(a)
			if !seen[l] {
				seen[l] = true
				count[l]++
			}
		}
	}
	best := 0
	for _, c := range count {
		if c > best {
			best = c
		}
	}
	return best
}

// SelectOptions tune tunnel selection.
type SelectOptions struct {
	// PerPair is the number of tunnels to select per pair.
	PerPair int
	// Penalty multiplies the weight of a link each time an already
	// selected tunnel for the pair uses it. Defaults to 16 (strongly
	// prefer disjointness, as the paper does).
	Penalty float64
}

// Select chooses tunnels for every listed pair. For each pair it first
// takes fully link-disjoint shortest paths while they exist, then fills
// the remaining slots with penalized shortest paths, skipping exact
// duplicates.
func Select(g *topology.Graph, pairs []topology.Pair, opts SelectOptions) (*Set, error) {
	if opts.PerPair <= 0 {
		return nil, fmt.Errorf("tunnels: PerPair must be positive")
	}
	if opts.Penalty < 0 {
		// A negative penalty would feed negative weights into the
		// shortest-path machinery, which rejects them.
		return nil, fmt.Errorf("tunnels: Penalty must be nonnegative, got %g", opts.Penalty)
	}
	penalty := opts.Penalty
	if penalty == 0 {
		penalty = 16
	}
	set := NewSet(g)
	res := newResidual(g)
	for _, pair := range pairs {
		// Phase 1: a maximum set of link-disjoint paths (up to
		// PerPair), found by successive shortest augmenting paths in
		// the unit-capacity residual graph (Suurballe-style, so two
		// disjoint tunnels exist whenever the graph is 2-edge-
		// connected, matching the paper's setup).
		chosen := disjointPaths(res, pair, opts.PerPair)
		numDisjoint := len(chosen)
		used := make(map[topology.LinkID]int)
		for _, p := range chosen {
			for _, a := range p.Arcs {
				used[topology.LinkOf(a)]++
			}
		}
		if len(chosen) == 0 {
			return nil, fmt.Errorf("tunnels: no path for pair %v", pair)
		}
		// Phase 2: fill the remaining slots from Yen's k-shortest-path
		// enumeration under usage-penalized weights, preferring low
		// overlap with the chosen set and then shorter length.
		if len(chosen) < opts.PerPair {
			weight := func(l topology.LinkID) float64 {
				w := g.Link(l).Weight
				for i := 0; i < used[l]; i++ {
					w *= penalty
				}
				return w
			}
			enum := g.KShortestPaths(pair.Src, pair.Dst, 4*opts.PerPair, weight)
			for _, p := range enum {
				if len(chosen) >= opts.PerPair {
					break
				}
				if !containsPath(chosen, p) {
					chosen = append(chosen, p)
					for _, a := range p.Arcs {
						used[topology.LinkOf(a)]++
					}
				}
			}
		}
		// Shorter tunnels first within each group, but fully disjoint
		// paths always precede penalized ones: Restrict(k) must keep
		// the most-disjoint prefix (FFC's 2-tunnel configuration
		// relies on a disjoint pair).
		disjointPart := chosen[:numDisjoint]
		extraPart := chosen[numDisjoint:]
		sort.SliceStable(disjointPart, func(i, j int) bool { return len(disjointPart[i].Arcs) < len(disjointPart[j].Arcs) })
		sort.SliceStable(extraPart, func(i, j int) bool { return len(extraPart[i].Arcs) < len(extraPart[j].Arcs) })
		for _, p := range chosen {
			if _, err := set.Add(pair, p); err != nil {
				return nil, err
			}
		}
	}
	return set, nil
}

func containsPath(paths []topology.Path, p topology.Path) bool {
	for _, q := range paths {
		if samePath(q, p) {
			return true
		}
	}
	return false
}

func samePath(a, b topology.Path) bool {
	if len(a.Arcs) != len(b.Arcs) {
		return false
	}
	for i := range a.Arcs {
		if a.Arcs[i] != b.Arcs[i] {
			return false
		}
	}
	return true
}

// Restrict returns a new Set containing only the first k tunnels of
// each pair, sharing the same underlying graph. Used by the experiments
// that sweep tunnel counts (Figs 8 and 9).
func (s *Set) Restrict(k int) *Set {
	out := NewSet(s.g)
	for _, p := range s.Pairs() {
		ids := s.byPair[p]
		for i, id := range ids {
			if i >= k {
				break
			}
			out.MustAdd(p, s.tunnels[id].Path)
		}
	}
	return out
}

// residual is disjointPaths' scratch state over one graph: link ends
// and weights read once into a compact per-link table, and buffers
// reused across augmentations and pairs so the Bellman-Ford passes
// allocate nothing.
type residual struct {
	g       *topology.Graph
	links   []resLink // indexed by LinkID
	usage   []int8    // per link: 0 unused, +1 forward arc used, -1 reverse
	dist    []float64
	prevArc []topology.ArcID
}

// resLink is a link as the Bellman-Ford passes read it. Link l's
// forward arc 2l runs a->b, its reverse arc 2l+1 b->a.
type resLink struct {
	a, b   topology.NodeID
	weight float64
}

func newResidual(g *topology.Graph) *residual {
	r := &residual{
		g:       g,
		links:   make([]resLink, g.NumLinks()),
		usage:   make([]int8, g.NumLinks()),
		dist:    make([]float64, g.NumNodes()),
		prevArc: make([]topology.ArcID, g.NumNodes()),
	}
	for i, l := range g.Links() {
		r.links[i] = resLink{a: l.A, b: l.B, weight: l.Weight}
	}
	return r
}

// disjointPaths computes up to k link-disjoint src->dst paths of small
// total length via successive shortest augmenting paths on the
// unit-capacity (per link) residual graph. Reversing a used link has
// negative cost, so Bellman-Ford finds the augmenting paths. Each pass
// relaxes arcs in link-ID order, forward before reverse, and ties keep
// the first arc found, so the paths depend on that order; DESIGN.md §8
// says why this is not Dijkstra.
func disjointPaths(r *residual, pair topology.Pair, k int) []topology.Path {
	g, usage, dist, prevArc := r.g, r.usage, r.dist, r.prevArc
	clear(usage)
	flows := 0
	for flows < k {
		for i := range dist {
			dist[i] = math.Inf(1)
			prevArc[i] = -1
		}
		dist[pair.Src] = 0
		for iter := 0; iter < len(dist); iter++ {
			improved := false
			for li, l := range r.links {
				fwd := topology.ArcID(2 * li)
				switch usage[li] {
				case 0: // either direction available
					improved = relax(dist, prevArc, l.a, l.b, l.weight, fwd) || improved
					improved = relax(dist, prevArc, l.b, l.a, l.weight, fwd+1) || improved
				case +1: // only cancellation allowed
					improved = relax(dist, prevArc, l.b, l.a, -l.weight, fwd+1) || improved
				case -1:
					improved = relax(dist, prevArc, l.a, l.b, -l.weight, fwd) || improved
				}
			}
			if !improved {
				break
			}
		}
		if prevArc[pair.Dst] == -1 {
			break // no more disjoint paths
		}
		// Apply the augmenting path to the usage slice.
		for at := pair.Dst; at != pair.Src; {
			arc := prevArc[at]
			l := topology.LinkOf(arc)
			dir := int8(+1)
			if arc == g.Link(l).Reverse() {
				dir = -1
			}
			if usage[l] == -dir {
				usage[l] = 0 // cancellation
			} else {
				usage[l] = dir
			}
			at, _ = g.ArcEnds(arc)
		}
		flows++
	}
	if flows == 0 {
		return nil
	}
	// Decompose the flow into paths by walking from src. Scan links in
	// ID order so the decomposition (and therefore tunnel selection)
	// is deterministic.
	outArcs := map[topology.NodeID][]topology.ArcID{}
	for li, dir := range usage {
		if dir == 0 {
			continue
		}
		arc := g.Link(topology.LinkID(li)).Forward()
		if dir == -1 {
			arc = g.Link(topology.LinkID(li)).Reverse()
		}
		from, _ := g.ArcEnds(arc)
		outArcs[from] = append(outArcs[from], arc)
	}
	var paths []topology.Path
	for f := 0; f < flows; f++ {
		var arcs []topology.ArcID
		at := pair.Src
		for at != pair.Dst {
			list := outArcs[at]
			if len(list) == 0 {
				return paths // should not happen; be safe
			}
			arc := list[0]
			outArcs[at] = list[1:]
			arcs = append(arcs, arc)
			_, at = g.ArcEnds(arc)
		}
		paths = append(paths, topology.Path{Arcs: arcs})
	}
	sort.SliceStable(paths, func(i, j int) bool { return len(paths[i].Arcs) < len(paths[j].Arcs) })
	return paths
}

// relax is one Bellman-Ford step along arc from->to. A node still at
// +Inf is skipped: Inf+cost never passes the strict test below.
func relax(dist []float64, prevArc []topology.ArcID, from, to topology.NodeID, cost float64, arc topology.ArcID) bool {
	d := dist[from]
	if math.IsInf(d, 1) {
		return false
	}
	if d+cost < dist[to]-1e-12 {
		dist[to] = d + cost
		prevArc[to] = arc
		return true
	}
	return false
}
