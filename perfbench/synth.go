package main

import (
	"math/rand"
	"time"

	"pcf/internal/core"
)

const (
	synthNodes = 1000
	synthSeed  = 1 // graph and TM seed of the one instance
	synthPairs = 150
)

// synthPlan is the planner's path at 1k nodes: one Waxman instance
// from topozoo.Synth and a gravity TM. The instance is the same for
// every workload seed: solve time on different 1k-node demands varies
// by more than ±25%, more than any bound could absorb, so the seed only
// orders the scenarios of the realize passes. Set-up prepares it
// (the n² gravity and pair-selection path and tunnel selection). A
// round solves PCF-TF on the sparse LU path, validates the plan over
// its ~2,000 single-link scenarios with the batched SMW sweep, checks
// (P1), and realizes every scenario in-process.
func synthPlan(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	o := prepOpts{
		Synth: "waxman", Nodes: synthNodes, GraphSeed: synthSeed,
		TMSeed: synthSeed, MaxPairs: synthPairs, Budget: 1,
	}
	var in *instance
	err := r.setupReps(3, func(s sample, sp int) error {
		start := time.Now()
		var err error
		in, err = r.prepare(o, s, sp)
		s["setup_s"] = time.Since(start).Seconds()
		return err
	})
	if err != nil {
		return err
	}
	scs := scenarios(in.fs, rng)
	return r.measure(2, func(s sample, sp int) error {
		tf, err := r.solve("core.tf", sp, s, func(int) (*core.Plan, error) {
			return core.SolvePCFTF(in.base(), core.SolveOptions{})
		})
		if err != nil {
			return err
		}
		if !tf.Stats.SparseFactor {
			r.fail("synth PCF-TF solve did not take the sparse factorization path")
		}
		if err := checkP1(tf); err != nil {
			r.fail("synth PCF-TF (P1): %v", err)
		}
		if err := r.validate(tf, sp, s); err != nil {
			return err
		}
		var lat []float64
		if err := r.realizePasses(tf, scs, sp, s, &lat); err != nil {
			return err
		}
		realizeMetrics(s, lat)
		return nil
	})
}
