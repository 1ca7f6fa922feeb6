package main

import (
	"fmt"
	"runtime"
	"sort"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/mcf"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// prepOpts describe one instance the way eval.Prepare takes them, with
// the graph seed of a synthetic topology separate from the TM seed so
// a workload can keep its graph and draw its demand from the seed.
type prepOpts struct {
	Topology  string // Table 3 name; ignored when Synth is set
	Synth     string // "waxman" or "ring-of-rings"
	Nodes     int
	GraphSeed int64
	TMSeed    int64
	MaxPairs  int
	Budget    int // simultaneous link failures f
}

// instance is a prepared evaluation instance: eval.Setup's fields.
type instance struct {
	name    string
	g       *topology.Graph
	tm      *traffic.Matrix
	pairs   []topology.Pair
	tunnels *tunnels.Set // 3 per pair
	fs      *failures.Set
	budget  int
}

const (
	tunnelsPerPair = 3 // PCF schemes (paper §5)
	ffcTunnels     = 2 // FFC
	mluLow         = 0.6
	mluHigh        = 0.63
)

// prepare builds an instance with the same steps and parameters as
// eval.Prepare, calling each layer itself so the traced run can time
// them: load and prune the graph, gravity demand, top pairs, tunnel
// selection, and demand scaling (exact MCF scaling for Table 3 graphs,
// the tunnel-routing bound for synthetic ones). prepare_test.go checks
// that the result matches eval.Prepare. It adds the bytes allocated
// to s under eval.prepare_alloc_mb.
func (r *run) prepare(o prepOpts, s sample, parent int) (*instance, error) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	in := &instance{budget: o.Budget}
	err := r.tr.do("topozoo.load", parent, func() error {
		var g *topology.Graph
		var err error
		if o.Synth != "" {
			g, err = topozoo.Synth(o.Synth, o.Nodes, o.GraphSeed)
		} else {
			g, err = topozoo.Load(o.Topology)
		}
		if err != nil {
			return err
		}
		in.g, _ = g.PruneDegreeOne()
		return nil
	})
	if err != nil {
		return nil, err
	}
	in.name = in.g.Name
	if o.Synth == "" {
		in.name = o.Topology
	}
	r.tr.do("traffic.gravity", parent, func() error {
		in.tm = traffic.Gravity(in.g, traffic.GravityOptions{Seed: o.TMSeed, Jitter: 0.4})
		return nil
	})
	r.tr.do("traffic.top_pairs", parent, func() error {
		in.pairs = in.tm.TopPairs(o.MaxPairs)
		in.tm = in.tm.Restrict(in.pairs)
		return nil
	})
	err = r.tr.do("tunnels.select", parent, func() error {
		ts, err := tunnels.Select(in.g, in.pairs, tunnels.SelectOptions{PerPair: tunnelsPerPair})
		in.tunnels = ts
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.name, err)
	}
	if o.Synth != "" {
		in.tm, err = scaleByTunnels(in.g, in.tm, in.pairs, in.tunnels, mluLow)
	} else {
		err = r.tr.do("mcf.scale", parent, func() error {
			var err error
			in.tm, _, err = mcf.ScaleToMLU(in.g, in.tm, mluLow, mluHigh)
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.name, err)
	}
	in.fs = failures.SingleLinks(in.g, o.Budget)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	s["eval.prepare_alloc_mb"] += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	return in, nil
}

// scaleByTunnels scales demand so that routing each pair evenly over
// its tunnels gives MLU = target: eval's stand-in for exact MCF scaling
// on synthetic graphs, where that LP would dwarf the experiment.
func scaleByTunnels(g *topology.Graph, tm *traffic.Matrix, pairs []topology.Pair, ts *tunnels.Set, target float64) (*traffic.Matrix, error) {
	load := make([]float64, g.NumArcs())
	for _, p := range pairs {
		ids := ts.ForPair(p)
		if len(ids) == 0 {
			continue
		}
		share := tm.At(p) / float64(len(ids))
		for _, id := range ids {
			for _, a := range ts.Tunnel(id).Path.Arcs {
				load[a] += share
			}
		}
	}
	mlu := 0.0
	for a, l := range load {
		if c := g.ArcCapacity(topology.ArcID(a)); c > 0 && l/c > mlu {
			mlu = l / c
		}
	}
	if mlu <= 1e-12 {
		return nil, fmt.Errorf("synthetic demand produces no tunnel load")
	}
	return tm.Scale(target / mlu), nil
}

// base is the instance PCF-TF solves: every selected tunnel.
func (in *instance) base() *core.Instance {
	return &core.Instance{Graph: in.g, TM: in.tm, Tunnels: in.tunnels, Failures: in.fs, Objective: core.DemandScale}
}

// ffc is the FFC instance: the first two tunnels of each pair.
func (in *instance) ffc() *core.Instance {
	c := in.base()
	c.Tunnels = in.tunnels.Restrict(ffcTunnels)
	return c
}

// lsInstance is eval's PCF-LS configuration: one unconditional
// shortest-path LS per demand pair, with tunnels selected for every LS
// segment pair that has none.
func (r *run) lsInstance(in *instance, parent int) (*core.Instance, error) {
	c := in.base()
	c.LSs = core.ShortestPathLSs(in.g, in.pairs)
	var need []topology.Pair
	seen := map[topology.Pair]bool{}
	for _, q := range c.LSs {
		for _, seg := range q.Segments() {
			if len(c.Tunnels.ForPair(seg)) == 0 && !seen[seg] {
				seen[seg] = true
				need = append(need, seg)
			}
		}
	}
	if len(need) == 0 {
		return c, nil
	}
	ts, err := r.mergeTunnels(in.g, c.Tunnels, need, parent)
	c.Tunnels = ts
	return c, err
}

// augmentCLS gives the segments of unconditional CLS sequences with
// fewer than three tunnels a resilient tunnel set, as eval does before
// solving PCF-CLS.
func (r *run) augmentCLS(c *core.Instance, parent int) error {
	var need []topology.Pair
	seen := map[topology.Pair]bool{}
	for _, q := range c.LSs {
		if q.Cond != nil {
			continue
		}
		for _, seg := range q.Segments() {
			if len(c.Tunnels.ForPair(seg)) < tunnelsPerPair && !seen[seg] {
				seen[seg] = true
				need = append(need, seg)
			}
		}
	}
	if len(need) == 0 {
		return nil
	}
	ts, err := r.mergeTunnels(c.Graph, c.Tunnels, need, parent)
	c.Tunnels = ts
	return err
}

// mergeTunnels selects tunnels for the extra pairs and returns a set
// holding the existing tunnels followed by the new ones, dropping
// duplicate paths of a pair.
func (r *run) mergeTunnels(g *topology.Graph, have *tunnels.Set, extra []topology.Pair, parent int) (*tunnels.Set, error) {
	sort.Slice(extra, func(i, j int) bool {
		if extra[i].Src != extra[j].Src {
			return extra[i].Src < extra[j].Src
		}
		return extra[i].Dst < extra[j].Dst
	})
	var add *tunnels.Set
	err := r.tr.do("tunnels.select", parent, func() error {
		var err error
		add, err = tunnels.Select(g, extra, tunnels.SelectOptions{PerPair: tunnelsPerPair})
		return err
	})
	if err != nil {
		return nil, err
	}
	merged := tunnels.NewSet(g)
	seen := map[string]bool{}
	for _, ts := range []*tunnels.Set{have, add} {
		for _, p := range ts.Pairs() {
			for _, id := range ts.ForPair(p) {
				path := ts.Tunnel(id).Path
				if k := fmt.Sprint(p, path.Arcs); !seen[k] {
					seen[k] = true
					merged.MustAdd(p, path)
				}
			}
		}
	}
	return merged, nil
}
