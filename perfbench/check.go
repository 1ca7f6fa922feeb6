package main

import (
	"fmt"
	"math"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/routing"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// These checks are the benchmark's own, written from the paper's
// definitions and independent of routing.CheckRealization: they read
// only plan reservations, the instance and realized tunnel flows.

const checkTol = 1e-6

// within reports a ≤ b up to a relative tolerance.
func within(a, b float64) bool {
	return a <= b+checkTol*math.Max(1, math.Abs(b))
}

// checkP1 verifies a tunnel-only plan (FFC, PCF-TF) against (P1): the
// reservations crossing each arc fit its capacity, and in every
// enumerated scenario each pair's reservations on surviving tunnels
// cover its granted demand z·d.
func checkP1(plan *core.Plan) error {
	in := plan.Instance
	g := in.Graph
	load := make([]float64, g.NumArcs())
	for id, res := range plan.TunnelRes {
		if res < -checkTol {
			return fmt.Errorf("tunnel %d has negative reservation %g", id, res)
		}
		for _, a := range in.Tunnels.Tunnel(id).Path.Arcs {
			load[a] += res
		}
	}
	for a, l := range load {
		if c := g.ArcCapacity(topology.ArcID(a)); !within(l, c) {
			return fmt.Errorf("arc %d reserves %g over capacity %g", a, l, c)
		}
	}
	pairs := in.DemandPairs()
	var bad error
	in.Failures.Enumerate(func(sc failures.Scenario) bool {
		for _, p := range pairs {
			need := plan.Z[p] * in.TM.At(p)
			have := 0.0
			for _, id := range in.Tunnels.ForPair(p) {
				if tunnelAlive(in.Tunnels.Tunnel(id), sc) {
					have += plan.TunnelRes[id]
				}
			}
			if !within(need, have) {
				bad = fmt.Errorf("pair %v under %v: surviving reservations %g < z·d %g", p, sc, have, need)
				return false
			}
		}
		return true
	})
	return bad
}

func tunnelAlive(t tunnels.Tunnel, sc failures.Scenario) bool {
	for _, a := range t.Path.Arcs {
		if sc.Dead[topology.LinkOf(a)] {
			return false
		}
	}
	return true
}

// realizationChecker verifies realizations of one plan from their
// per-destination tunnel flows alone: flows are non-negative and avoid
// dead links, every arc's load fits its capacity in the scenario, and
// for each destination t the net tunnel outflow of every node v ≠ t
// equals its granted demand z·d(v,t).
type realizationChecker struct {
	plan     *core.Plan
	demandTo map[topology.NodeID][]topology.Pair // demand pairs by destination
}

func newRealizationChecker(plan *core.Plan) *realizationChecker {
	c := &realizationChecker{plan: plan, demandTo: map[topology.NodeID][]topology.Pair{}}
	for _, p := range plan.Instance.DemandPairs() {
		c.demandTo[p.Dst] = append(c.demandTo[p.Dst], p)
	}
	return c
}

func (c *realizationChecker) check(r *routing.Realization) error {
	plan, demandTo := c.plan, c.demandTo
	in := plan.Instance
	g := in.Graph
	sc := r.Scenario
	load := make([]float64, g.NumArcs())
	for dst, flows := range r.TunnelTo {
		net := map[topology.NodeID]float64{}
		for _, p := range demandTo[dst] {
			net[p.Src] += 0
		}
		for id, x := range flows {
			if x < -checkTol {
				return fmt.Errorf("negative flow %g to %d on tunnel %d", x, dst, id)
			}
			t := in.Tunnels.Tunnel(id)
			if x > checkTol && !tunnelAlive(t, sc) {
				return fmt.Errorf("flow %g to %d on tunnel %d over a dead link under %v", x, dst, id, sc)
			}
			for _, a := range t.Path.Arcs {
				load[a] += x
			}
			net[t.Pair.Src] += x
			net[t.Pair.Dst] -= x
		}
		for v, out := range net {
			if v == dst {
				continue
			}
			p := topology.Pair{Src: v, Dst: dst}
			want := plan.Z[p] * in.TM.At(p)
			if math.Abs(out-want) > checkTol*math.Max(1, want) {
				return fmt.Errorf("node %d delivers %g to %d, want z·d = %g under %v", v, out, dst, want, sc)
			}
		}
	}
	for dst, ps := range demandTo {
		if _, ok := r.TunnelTo[dst]; ok {
			continue
		}
		for _, p := range ps {
			if want := plan.Z[p] * in.TM.At(p); want > checkTol {
				return fmt.Errorf("pair %v: demand %g delivered by no flow under %v", p, want, sc)
			}
		}
	}
	for a, l := range load {
		link := topology.LinkOf(topology.ArcID(a))
		c := g.ArcCapacity(topology.ArcID(a))
		if sc.Dead[link] {
			c = 0
		} else if f, ok := sc.Degraded[link]; ok {
			c *= f
		}
		if !within(l, c) {
			return fmt.Errorf("arc %d carries %g over scenario capacity %g under %v", a, l, c, sc)
		}
	}
	return nil
}

// checkOrder verifies the paper's ordering of scheme values on one
// instance: FFC ≤ PCF-TF ≤ PCF-LS ≤ PCF-CLS ≤ Optimal.
func checkOrder(names []string, vals []float64) error {
	for i := 1; i < len(vals); i++ {
		if !within(vals[i-1], vals[i]) {
			return fmt.Errorf("%s %.6f > %s %.6f", names[i-1], vals[i-1], names[i], vals[i])
		}
	}
	return nil
}
