package main

import (
	"fmt"
	"testing"

	"pcf/internal/eval"
)

// TestPrepareMatchesEval checks that the benchmark's layer-by-layer
// preparation builds the same instance as eval.Prepare, for a Table 3
// graph and for a synthetic one.
func TestPrepareMatchesEval(t *testing.T) {
	cases := []struct {
		mine prepOpts
		ref  eval.Options
	}{
		{
			prepOpts{Topology: "Sprint", TMSeed: 3, MaxPairs: 24, Budget: 1},
			eval.Options{Topology: "Sprint", Seed: 3, MaxPairs: 24, FailureBudget: 1},
		},
		{
			prepOpts{Synth: "waxman", Nodes: 200, GraphSeed: 2, TMSeed: 2, MaxPairs: 30, Budget: 1},
			eval.Options{Synth: "waxman", SynthNodes: 200, Seed: 2, MaxPairs: 30, FailureBudget: 1},
		},
	}
	for _, c := range cases {
		got, err := newRun(1, 1, false).prepare(c.mine, sample{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.Prepare(c.ref)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.pairs) != fmt.Sprint(want.Pairs) {
			t.Fatalf("%s: pairs %v, eval.Prepare %v", got.name, got.pairs, want.Pairs)
		}
		for _, p := range want.Pairs {
			if got.tm.At(p) != want.TM.At(p) {
				t.Fatalf("%s: demand of %v is %g, eval.Prepare %g", got.name, p, got.tm.At(p), want.TM.At(p))
			}
			for i, id := range want.Tunnels.ForPair(p) {
				g, w := got.tunnels.Tunnel(got.tunnels.ForPair(p)[i]).Path, want.Tunnels.Tunnel(id).Path
				if fmt.Sprint(g.Arcs) != fmt.Sprint(w.Arcs) {
					t.Fatalf("%s: tunnel %d of %v is %v, eval.Prepare %v", got.name, i, p, g.Arcs, w.Arcs)
				}
			}
		}
		if got.fs.NumScenariosExact() != want.Failures.NumScenariosExact() {
			t.Fatalf("%s: failure sets differ", got.name)
		}
	}
}
