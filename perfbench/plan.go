package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/routing"
)

// solve runs one plan solve inside a span named for its scheme, counts
// it as an operation, adds its wall time to solve_s and its LP
// statistics to the layer counters in s.
func (r *run) solve(span string, parent int, s sample, fn func(sp int) (*core.Plan, error)) (*core.Plan, error) {
	sp := r.tr.begin(span, parent)
	start := time.Now()
	plan, err := fn(sp)
	s["solve_s"] += time.Since(start).Seconds()
	r.tr.end(sp)
	if r.op(err) != nil {
		return nil, fmt.Errorf("%s: %w", span, err)
	}
	st := plan.Stats
	s["core.compile_ms"] += ms(st.CompileTime)
	s["core.rounds"] += float64(st.Rounds)
	s["core.cuts"] += float64(st.Cuts)
	s["core.warm_hits"] += float64(st.WarmHits)
	s["lp.iterations"] += float64(st.LPIterations)
	s["lp.refactors"] += float64(st.Refactors)
	s["lp.solve_s"] += plan.SolveTime.Seconds()
	s["lp.iters_per_s"] = s["lp.iterations"] / s["lp.solve_s"]
	s["lp.max_eta_len"] = max(s["lp.max_eta_len"], float64(st.MaxEtaLen))
	if st.SparseFactor && st.BasisNNZ > 0 {
		s["lp.basis_nnz"] += float64(st.BasisNNZ)
		s["lp.factor_nnz"] += float64(st.FactorNNZ)
		s["lp.fill_ratio"] = s["lp.factor_nnz"] / s["lp.basis_nnz"]
	}
	return plan, nil
}

// validate runs a full validation sweep of the plan (routing's exact
// sweep over every protected scenario), counts it as an operation, adds
// its wall time to validate_s and its sweep statistics to s.
func (r *run) validate(plan *core.Plan, parent int, s sample) error {
	var st *routing.SweepStats
	runtime.GC() // the solves' garbage is not the sweep's cost
	start := time.Now()
	err := r.tr.do("routing.validate", parent, func() error {
		var err error
		st, err = routing.ValidateStats(nil, plan, routing.ValidateOptions{})
		return err
	})
	s["validate_s"] += time.Since(start).Seconds()
	if r.op(err) != nil {
		return fmt.Errorf("validating %s plan: %w", plan.Scheme, err)
	}
	sweepCounters(s, st)
	return nil
}

// sweepCounters adds one validation sweep's statistics to s.
func sweepCounters(s sample, st *routing.SweepStats) {
	s["routing.base_factor_ms"] += ms(st.BaseFactorTime)
	s["routing.sweep_ms"] += ms(st.Total)
	s["failures.scenarios"] += float64(st.Scenarios)
	s["routing.scenario_us"] = 1e3 * (s["routing.sweep_ms"] - s["routing.base_factor_ms"]) / s["failures.scenarios"]
	s["routing.smw_hits"] += float64(st.SMWHits)
	s["routing.fallbacks"] += float64(st.Fallbacks)
	s["routing.batch_hits"] += float64(st.BatchHits)
	s["routing.max_rank"] = max(s["routing.max_rank"], float64(st.MaxRank))
}

// scenarios returns every scenario of the failure set in an order
// shuffled by rng.
func scenarios(fs *failures.Set, rng *rand.Rand) []failures.Scenario {
	var out []failures.Scenario
	fs.Enumerate(func(sc failures.Scenario) bool {
		sc.FailedUnits = append([]int(nil), sc.FailedUnits...)
		out = append(out, sc)
		return true
	})
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmPasses is how many warm passes realizePasses times.
const warmPasses = 3

// realizePasses is the in-process online response: it builds a fresh
// sweep for the plan and realizes every scenario in the given order,
// 2+warmPasses times. The first pass fills the sweep's memoized
// corrections and is reported as routing.realize_first_pass_us. The
// warm passes are the response to a failure: their per-call latencies
// are appended to lat and summed into the realize metrics. The last
// pass, untimed, checks every realization with the sweep's own check
// (timed as routing.check_us) and with the benchmark's independent
// realization check.
func (r *run) realizePasses(plan *core.Plan, scs []failures.Scenario, parent int, s sample, lat *[]float64) error {
	var sw *routing.Sweep
	r.tr.do("routing.new_sweep", parent, func() error {
		sw = routing.NewSweep(plan)
		return nil
	})
	runtime.GC()
	for pass := 0; pass <= warmPasses; pass++ {
		for _, sc := range scs {
			sp := r.tr.begin("routing.realize", parent)
			start := time.Now()
			_, err := sw.Realize(sc)
			d := time.Since(start)
			r.tr.end(sp)
			if r.op(err) != nil {
				return fmt.Errorf("realizing %s plan under %v: %w", plan.Scheme, sc, err)
			}
			if pass == 0 {
				s["routing.first_pass_s"] += d.Seconds()
				s["routing.first_pass_n"]++
			} else {
				*lat = append(*lat, d.Seconds())
				s["routing.warm_s"] += d.Seconds()
				s["routing.warm_n"]++
			}
		}
	}
	check := newRealizationChecker(plan)
	for _, sc := range scs {
		real, err := sw.Realize(sc)
		if err != nil {
			r.fail("%s plan under %v: realize failed only in the check pass: %v", plan.Scheme, sc, err)
			continue
		}
		start := time.Now()
		err = r.tr.do("routing.check", parent, func() error { return sw.Check(real) })
		s["routing.check_s"] += time.Since(start).Seconds()
		s["routing.check_n"]++
		if err != nil {
			r.fail("%s plan under %v: sweep check: %v", plan.Scheme, sc, err)
		}
		if err := check.check(real); err != nil {
			r.fail("%s plan: %v", plan.Scheme, err)
		}
	}
	s["routing.realize_first_pass_us"] = 1e6 * s["routing.first_pass_s"] / s["routing.first_pass_n"]
	s["routing.realize_us"] = 1e6 * s["routing.warm_s"] / s["routing.warm_n"]
	s["routing.check_us"] = 1e6 * s["routing.check_s"] / s["routing.check_n"]
	return nil
}

// realizeMetrics turns a round's in-process warm realizations into the
// end-to-end realize metrics.
func realizeMetrics(s sample, lat []float64) {
	s["realize_rps"] = s["routing.warm_n"] / s["routing.warm_s"]
	latencies(s, lat)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
