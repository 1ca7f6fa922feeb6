package main

import (
	"strings"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/routing"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// testPlan prepares a small Table 3 instance and solves PCF-TF on it.
func testPlan(t *testing.T) (*instance, *core.Plan) {
	t.Helper()
	r := newRun(1, 1, false)
	in, err := r.prepare(prepOpts{Topology: "Sprint", TMSeed: 3, MaxPairs: 12, Budget: 1}, sample{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.SolvePCFTF(in.base(), core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return in, plan
}

// clonePlan copies the maps a corruption edits.
func clonePlan(p *core.Plan) *core.Plan {
	c := *p
	c.Z = map[topology.Pair]float64{}
	for k, v := range p.Z {
		c.Z[k] = v
	}
	c.TunnelRes = map[tunnels.ID]float64{}
	for k, v := range p.TunnelRes {
		c.TunnelRes[k] = v
	}
	return &c
}

func wantErr(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption passed the check, want an error mentioning %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func TestP1AcceptsSolvedPlans(t *testing.T) {
	in, tf := testPlan(t)
	if err := checkP1(tf); err != nil {
		t.Fatalf("PCF-TF plan fails (P1): %v", err)
	}
	ffc, err := core.SolveFFC(in.ffc(), core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkP1(ffc); err != nil {
		t.Fatalf("FFC plan fails (P1): %v", err)
	}
}

func TestP1RejectsOverReservedArc(t *testing.T) {
	in, tf := testPlan(t)
	bad := clonePlan(tf)
	id := in.tunnels.ForPair(in.pairs[0])[0]
	bad.TunnelRes[id] += 10 * in.g.ArcCapacity(in.tunnels.Tunnel(id).Path.Arcs[0])
	wantErr(t, checkP1(bad), "over capacity")
}

func TestP1RejectsUncoveredPair(t *testing.T) {
	in, tf := testPlan(t)
	bad := clonePlan(tf)
	// Keep the pair's reservations but claim to grant more than they
	// can carry once one of its tunnels fails.
	p := in.pairs[0]
	total := 0.0
	for _, id := range in.tunnels.ForPair(p) {
		total += tf.TunnelRes[id]
	}
	bad.Z[p] = total / in.tm.At(p)
	wantErr(t, checkP1(bad), "surviving reservations")
}

// testRealization realizes the plan under a single-link failure that
// kills one of the first pair's tunnels.
func testRealization(t *testing.T, in *instance, plan *core.Plan) (*routing.Realization, topology.LinkID) {
	t.Helper()
	dead := in.tunnels.Tunnel(in.tunnels.ForPair(in.pairs[0])[0]).Path.Links()[0]
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{dead: true}}
	r, err := routing.Realize(plan, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := newRealizationChecker(plan).check(r); err != nil {
		t.Fatalf("fresh realization fails the check: %v", err)
	}
	return r, dead
}

// copyFlows deep-copies a realization's per-destination flows.
func copyFlows(r *routing.Realization) *routing.Realization {
	c := *r
	c.TunnelTo = map[topology.NodeID]map[tunnels.ID]float64{}
	for dst, flows := range r.TunnelTo {
		c.TunnelTo[dst] = map[tunnels.ID]float64{}
		for id, x := range flows {
			c.TunnelTo[dst][id] = x
		}
	}
	return &c
}

func TestRealizationAcceptsEveryScenario(t *testing.T) {
	in, tf := testPlan(t)
	sw := routing.NewSweep(tf)
	check := newRealizationChecker(tf)
	in.fs.Enumerate(func(sc failures.Scenario) bool {
		r, err := sw.Realize(sc)
		if err != nil {
			t.Fatalf("realize under %v: %v", sc, err)
		}
		if err := check.check(r); err != nil {
			t.Fatalf("realization under %v: %v", sc, err)
		}
		return true
	})
}

func TestRealizationRejectsFlowOnDeadLink(t *testing.T) {
	in, tf := testPlan(t)
	r, dead := testRealization(t, in, tf)
	bad := copyFlows(r)
	p := in.pairs[0]
	var alive, killed tunnels.ID = -1, -1
	for _, id := range in.tunnels.ForPair(p) {
		if in.tunnels.Tunnel(id).Path.UsesLink(dead) {
			killed = id
		} else if bad.TunnelTo[p.Dst][id] > 0 {
			alive = id
		}
	}
	if alive < 0 || killed < 0 {
		t.Fatal("test instance lacks a live and a dead tunnel for the pair")
	}
	// Move the flow onto the dead tunnel: delivery is unchanged, so only
	// the dead-link rule can catch it.
	bad.TunnelTo[p.Dst][killed] += bad.TunnelTo[p.Dst][alive]
	bad.TunnelTo[p.Dst][alive] = 0
	wantErr(t, newRealizationChecker(tf).check(bad), "dead link")
}

func TestRealizationRejectsShortDelivery(t *testing.T) {
	in, tf := testPlan(t)
	r, _ := testRealization(t, in, tf)
	bad := copyFlows(r)
	p := in.pairs[0]
	for id := range bad.TunnelTo[p.Dst] {
		if in.tunnels.Tunnel(id).Pair == p {
			bad.TunnelTo[p.Dst][id] *= 0.5
		}
	}
	wantErr(t, newRealizationChecker(tf).check(bad), "delivers")
}

func TestRealizationRejectsMissingDestination(t *testing.T) {
	in, tf := testPlan(t)
	r, _ := testRealization(t, in, tf)
	bad := copyFlows(r)
	delete(bad.TunnelTo, in.pairs[0].Dst)
	wantErr(t, newRealizationChecker(tf).check(bad), "delivered by no flow")
}

func TestRealizationRejectsOverloadedArc(t *testing.T) {
	in, tf := testPlan(t)
	r, _ := testRealization(t, in, tf)
	// Grant ten times the demand and carry it: every pair's delivery
	// matches its grant, but the arcs cannot hold it.
	bad := copyFlows(r)
	big := clonePlan(tf)
	for p := range big.Z {
		big.Z[p] *= 10
	}
	for _, flows := range bad.TunnelTo {
		for id := range flows {
			flows[id] *= 10
		}
	}
	wantErr(t, newRealizationChecker(big).check(bad), "over scenario capacity")
}

func TestOrderRejectsInversion(t *testing.T) {
	names := []string{"FFC", "PCF-TF", "PCF-LS", "PCF-CLS", "Optimal"}
	if err := checkOrder(names, []float64{0.3, 0.5, 0.5, 0.6, 0.7}); err != nil {
		t.Fatalf("ordered values rejected: %v", err)
	}
	wantErr(t, checkOrder(names, []float64{0.3, 0.5, 0.5, 0.6, 0.55}), "PCF-CLS")
}
