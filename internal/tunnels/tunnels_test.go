package tunnels

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
)

func diamond() *topology.Graph {
	g := topology.New("diamond")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddLink(a, b, 1)
	g.AddLink(b, d, 1)
	g.AddLink(a, c, 1)
	g.AddLink(c, d, 1)
	g.AddLink(b, c, 1)
	return g
}

func TestSelectDisjoint(t *testing.T) {
	g := diamond()
	pair := topology.Pair{Src: 0, Dst: 3}
	s, err := Select(g, []topology.Pair{pair}, SelectOptions{PerPair: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := s.ForPair(pair)
	if len(ids) != 2 {
		t.Fatalf("got %d tunnels", len(ids))
	}
	if s.MaxShared(pair) != 1 {
		t.Fatalf("p_st = %d, want 1 (disjoint)", s.MaxShared(pair))
	}
}

func TestSelectThreeTunnels(t *testing.T) {
	g := diamond()
	pair := topology.Pair{Src: 0, Dst: 3}
	s, err := Select(g, []topology.Pair{pair}, SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ForPair(pair)) != 3 {
		t.Fatalf("got %d tunnels", len(s.ForPair(pair)))
	}
	// Shorter tunnels must come first.
	ids := s.ForPair(pair)
	for i := 1; i < len(ids); i++ {
		if len(s.Tunnel(ids[i-1]).Path.Arcs) > len(s.Tunnel(ids[i]).Path.Arcs) {
			t.Fatal("tunnels not sorted by length")
		}
	}
}

// TestMengerGuarantee: on any 2-edge-connected graph, Select with
// PerPair=2 must return two link-disjoint tunnels for every pair (the
// paper relies on this property of its topologies).
func TestMengerGuarantee(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(4))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := topology.New("rand")
		for i := 0; i < n; i++ {
			g.AddNode("n")
		}
		// Ring guarantees 2-edge-connectivity; add chords.
		for i := 0; i < n; i++ {
			g.AddLink(topology.NodeID(i), topology.NodeID((i+1)%n), 1)
		}
		for e := 0; e < n/2; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddLink(topology.NodeID(a), topology.NodeID(b), 1)
			}
		}
		s, err := Select(g, g.AllPairs(), SelectOptions{PerPair: 2})
		if err != nil {
			return false
		}
		for _, p := range g.AllPairs() {
			if len(s.ForPair(p)) < 2 || s.MaxShared(p) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAddValidation(t *testing.T) {
	g := diamond()
	s := NewSet(g)
	if _, err := s.Add(topology.Pair{Src: 0, Dst: 3}, topology.Path{}); err == nil {
		t.Fatal("empty path accepted")
	}
	// Wrong endpoints.
	p, _ := g.ShortestPath(0, 2, nil, nil)
	if _, err := s.Add(topology.Pair{Src: 0, Dst: 3}, p); err == nil {
		t.Fatal("wrong-endpoint path accepted")
	}
	// Discontinuous path.
	l0 := g.Link(0) // a-b
	l3 := g.Link(3) // c-d
	bad := topology.Path{Arcs: []topology.ArcID{l0.Forward(), l3.Forward()}}
	if _, err := s.Add(topology.Pair{Src: 0, Dst: 3}, bad); err == nil {
		t.Fatal("discontinuous path accepted")
	}
}

func TestRestrict(t *testing.T) {
	g := diamond()
	pair := topology.Pair{Src: 0, Dst: 3}
	s, err := Select(g, []topology.Pair{pair}, SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Restrict(2)
	if len(r.ForPair(pair)) != 2 {
		t.Fatalf("restrict kept %d", len(r.ForPair(pair)))
	}
	// Originals unchanged.
	if len(s.ForPair(pair)) != 3 {
		t.Fatal("restrict mutated source")
	}
}

func TestUsingLink(t *testing.T) {
	g := diamond()
	pair := topology.Pair{Src: 0, Dst: 3}
	s, _ := Select(g, []topology.Pair{pair}, SelectOptions{PerPair: 2})
	count := 0
	for l := 0; l < g.NumLinks(); l++ {
		count += len(s.UsingLink(topology.LinkID(l)))
	}
	// Each tunnel uses 2 links; total link-uses = 4.
	if count != 4 {
		t.Fatalf("link uses = %d, want 4", count)
	}
}

func TestParallelLinksAsDisjointTunnels(t *testing.T) {
	g := topology.New("par")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddLink(a, b, 1)
	g.AddLink(a, b, 1)
	pair := topology.Pair{Src: a, Dst: b}
	s, err := Select(g, []topology.Pair{pair}, SelectOptions{PerPair: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ForPair(pair)) != 2 || s.MaxShared(pair) != 1 {
		t.Fatalf("parallel links should give 2 disjoint tunnels (got %d, shared %d)",
			len(s.ForPair(pair)), s.MaxShared(pair))
	}
}

// disjointPathsOracle is the map-based successive-shortest-path
// Bellman-Ford that disjointPaths replaced, kept verbatim as the
// reference: the rewrite must return the same paths, arc for arc.
func disjointPathsOracle(g *topology.Graph, pair topology.Pair, k int) []topology.Path {
	n := g.NumNodes()
	usage := make(map[topology.LinkID]int)
	flows := 0
	for flows < k {
		dist := make([]float64, n)
		prevArc := make([]topology.ArcID, n)
		for i := range dist {
			dist[i] = math.Inf(1)
			prevArc[i] = -1
		}
		dist[pair.Src] = 0
		for iter := 0; iter < n; iter++ {
			improved := false
			for li := 0; li < g.NumLinks(); li++ {
				l := g.Link(topology.LinkID(li))
				for _, arc := range []topology.ArcID{l.Forward(), l.Reverse()} {
					from, to := g.ArcEnds(arc)
					var cost float64
					switch usage[l.ID] {
					case 0:
						cost = l.Weight
					case +1:
						if arc != l.Reverse() {
							continue
						}
						cost = -l.Weight
					case -1:
						if arc != l.Forward() {
							continue
						}
						cost = -l.Weight
					}
					if dist[from]+cost < dist[to]-1e-12 {
						dist[to] = dist[from] + cost
						prevArc[to] = arc
						improved = true
					}
				}
			}
			if !improved {
				break
			}
		}
		if prevArc[pair.Dst] == -1 {
			break
		}
		for at := pair.Dst; at != pair.Src; {
			arc := prevArc[at]
			l := topology.LinkOf(arc)
			dir := +1
			if arc == g.Link(l).Reverse() {
				dir = -1
			}
			if usage[l] == -dir {
				usage[l] = 0
			} else {
				usage[l] = dir
			}
			from, _ := g.ArcEnds(arc)
			at = from
		}
		flows++
	}
	if flows == 0 {
		return nil
	}
	usedLinks := make([]topology.LinkID, 0, len(usage))
	for l := range usage {
		usedLinks = append(usedLinks, l)
	}
	sort.Slice(usedLinks, func(i, j int) bool { return usedLinks[i] < usedLinks[j] })
	outArcs := map[topology.NodeID][]topology.ArcID{}
	for _, l := range usedLinks {
		dir := usage[l]
		if dir == 0 {
			continue
		}
		arc := g.Link(l).Forward()
		if dir == -1 {
			arc = g.Link(l).Reverse()
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
				return paths
			}
			arc := list[0]
			outArcs[at] = list[1:]
			arcs = append(arcs, arc)
			_, to := g.ArcEnds(arc)
			at = to
		}
		paths = append(paths, topology.Path{Arcs: arcs})
	}
	sort.SliceStable(paths, func(i, j int) bool { return len(paths[i].Arcs) < len(paths[j].Arcs) })
	return paths
}

func samePaths(a, b []topology.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !samePath(a[i], b[i]) {
			return false
		}
	}
	return true
}

// synth1k is the planner's 1000-node instance as eval.Prepare builds
// it: Waxman graph seed 1 with degree-one nodes pruned, and the 150
// highest pairs of its seed-1 gravity matrix.
func synth1k(tb testing.TB) (*topology.Graph, []topology.Pair) {
	tb.Helper()
	g, err := topozoo.Synth("waxman", 1000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	g, _ = g.PruneDegreeOne()
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 1, Jitter: 0.4})
	return g, tm.TopPairs(150)
}

// checkDisjointMatchesOracle runs both Bellman-Fords over pairs for
// each k, reusing one residual across all calls as Select does.
func checkDisjointMatchesOracle(t *testing.T, g *topology.Graph, pairs []topology.Pair, ks []int) {
	t.Helper()
	r := newResidual(g)
	for _, k := range ks {
		for _, p := range pairs {
			got, want := disjointPaths(r, p, k), disjointPathsOracle(g, p, k)
			if !samePaths(got, want) {
				t.Fatalf("%s %v k=%d: disjointPaths = %v, oracle %v", g.Name, p, k, got, want)
			}
		}
	}
}

// TestDisjointPathsMatchesOracle: on every topozoo topology, for all
// of its gravity demand pairs, and on the 1000-node synthetic
// instance's selected pairs, the slice-based Bellman-Ford returns
// exactly the map-based one's paths.
func TestDisjointPathsMatchesOracle(t *testing.T) {
	for _, name := range topozoo.Names() {
		g, err := topozoo.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		pairs := traffic.Gravity(g, traffic.GravityOptions{Seed: 1, Jitter: 0.4}).Pairs(0)
		checkDisjointMatchesOracle(t, g, pairs, []int{2, 3, 4})
	}
	g, pairs := synth1k(t)
	checkDisjointMatchesOracle(t, g, pairs, []int{3})
}

// setDigest hashes every tunnel of s in ID order: its ID, pair and
// arcs.
func setDigest(s *Set) string {
	h := sha256.New()
	for id := 0; id < s.Len(); id++ {
		tn := s.Tunnel(ID(id))
		fmt.Fprintf(h, "%d %v %v\n", tn.ID, tn.Pair, tn.Path.Arcs)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSelectGolden pins Select's output on Sprint (all pairs) and on
// the 1000-node synthetic instance (150 pairs), three tunnels per
// pair. The digests were recorded when Select still ran the map-based
// Bellman-Ford (disjointPathsOracle), so they hold the rewrite to
// identical tunnels: same pairs, IDs and arcs.
func TestSelectGolden(t *testing.T) {
	sprint, err := topozoo.Load("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	sprint, _ = sprint.PruneDegreeOne()
	synth, synthPairs := synth1k(t)
	for _, tc := range []struct {
		g       *topology.Graph
		pairs   []topology.Pair
		tunnels int
		digest  string
	}{
		{sprint, sprint.AllPairs(), 270, "2e5c2ab66d676a7a7414a1557d7673693bc247df6b5d48261a57389ede50d860"},
		{synth, synthPairs, 450, "ca28f67ee45d07a1cfbe8bef8b85e44ee296688d32110fd454c420567b1efc97"},
	} {
		s, err := Select(tc.g, tc.pairs, SelectOptions{PerPair: 3})
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != tc.tunnels || setDigest(s) != tc.digest {
			t.Errorf("%s: Select gave %d tunnels, digest %s; want %d, %s",
				tc.g.Name, s.Len(), setDigest(s), tc.tunnels, tc.digest)
		}
	}
}

// BenchmarkSelect1k selects three tunnels for each of the 1000-node
// synthetic instance's 150 pairs.
func BenchmarkSelect1k(b *testing.B) {
	g, pairs := synth1k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Select(g, pairs, SelectOptions{PerPair: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
