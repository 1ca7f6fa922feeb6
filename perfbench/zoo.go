package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/failures"
	"pcf/internal/mcf"
)

// zooTopologies are the Table 3 graphs of the zoo-eval workload: the
// five of eval.BenchConfig plus Quest, all small enough that every
// scheme and the optimal sweep run in about a second each.
var zooTopologies = []string{"Sprint", "B4", "IBM", "Highwinds", "CWIX", "Quest"}

const (
	zooTMsPerTopology = 2
	zooPairs          = 24
)

// zooCase is one prepared zoo instance with its PCF-LS configuration.
type zooCase struct {
	in  *instance
	ls  *core.Instance
	scs []failures.Scenario
}

// zooEval is the paper's own evaluation. Set-up prepares every
// topology × TM-seed instance at f=1 and its PCF-LS configuration. A
// round reproduces Fig 2 and Table 1 on the paper's gadgets, then on
// every instance solves FFC, PCF-TF, PCF-LS and PCF-CLS, computes the
// Optimal, validates each PCF plan with a full sweep, and realizes every
// plan in-process under every scenario.
func zooEval(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	var opts []prepOpts
	for _, topo := range zooTopologies {
		for i := 0; i < zooTMsPerTopology; i++ {
			opts = append(opts, prepOpts{Topology: topo, TMSeed: 1 + rng.Int63n(1<<30), MaxPairs: zooPairs, Budget: 1})
		}
	}
	var cases []zooCase
	err := r.setupReps(3, func(s sample, sp int) error {
		start := time.Now()
		cases = cases[:0]
		for _, o := range opts {
			in, err := r.prepare(o, s, sp)
			if err != nil {
				return err
			}
			ls, err := r.lsInstance(in, sp)
			if err != nil {
				return err
			}
			cases = append(cases, zooCase{in: in, ls: ls})
		}
		s["setup_s"] = time.Since(start).Seconds()
		return nil
	})
	if err != nil {
		return err
	}
	for i := range cases {
		cases[i].scs = scenarios(cases[i].in.fs, rng)
	}
	return r.measure(2, func(s sample, sp int) error {
		if err := r.gadgets(s, sp); err != nil {
			return err
		}
		var lat []float64
		for _, c := range cases {
			if err := r.zooInstance(c, s, sp, &lat); err != nil {
				return err
			}
		}
		realizeMetrics(s, lat)
		return nil
	})
}

// zooInstance runs every scheme on one instance and checks the results.
func (r *run) zooInstance(c zooCase, s sample, parent int, lat *[]float64) error {
	in := c.in
	ffc, err := r.solve("core.ffc", parent, s, func(int) (*core.Plan, error) {
		return core.SolveFFC(in.ffc(), core.SolveOptions{})
	})
	if err != nil {
		return err
	}
	tf, err := r.solve("core.tf", parent, s, func(int) (*core.Plan, error) {
		return core.SolvePCFTF(in.base(), core.SolveOptions{})
	})
	if err != nil {
		return err
	}
	ls, err := r.solve("core.ls", parent, s, func(int) (*core.Plan, error) {
		return core.SolvePCFLS(c.ls, core.SolveOptions{})
	})
	if err != nil {
		return err
	}
	cls, err := r.solve("pcf-cls", parent, s, func(sp int) (*core.Plan, error) {
		return r.solveCLS(in, sp)
	})
	if err != nil {
		return err
	}
	var opt float64
	var st *mcf.SweepStats
	start := time.Now()
	err = r.tr.do("mcf.optimal", parent, func() error {
		var err error
		opt, _, st, err = mcf.OptimalUnderFailuresStats(nil, in.g, in.tm, in.fs)
		return err
	})
	s["solve_s"] += time.Since(start).Seconds()
	if r.op(err) != nil {
		return fmt.Errorf("%s optimal: %w", in.name, err)
	}
	s["mcf.lp_iterations"] += float64(st.LPIterations)
	s["mcf.warm_hits"] += float64(st.WarmHits)
	s["mcf.sweep_ms"] += ms(st.Total)
	s["mcf.scenarios"] += float64(st.Scenarios)
	s["mcf.scenario_ms"] = s["mcf.sweep_ms"] / s["mcf.scenarios"]

	// The paper orders FFC ≤ PCF-TF ≤ PCF-LS ≤ PCF-CLS ≤ Optimal. eval's
	// CLS configuration does not contain the LS one, so LS ≤ CLS is not
	// guaranteed and does fail on some demand matrices; it is counted
	// in eval.cls_below_ls instead of checked. Every other link holds by
	// construction and is checked.
	for _, chain := range [][]*core.Plan{{ffc, tf, ls}, {tf, cls}} {
		names, vals := []string{}, []float64{}
		for _, p := range chain {
			names, vals = append(names, p.Scheme), append(vals, p.Value)
		}
		if err := checkOrder(append(names, "Optimal"), append(vals, opt)); err != nil {
			r.fail("%s: scheme order: %v", in.name, err)
		}
	}
	if !within(ls.Value, cls.Value) {
		s["eval.cls_below_ls"]++
	}
	for _, p := range []*core.Plan{ffc, tf} {
		if err := checkP1(p); err != nil {
			r.fail("%s %s: (P1): %v", in.name, p.Scheme, err)
		}
	}
	for _, p := range []*core.Plan{tf, ls, cls} {
		if err := r.validate(p, parent, s); err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
	}
	for _, p := range []*core.Plan{ffc, tf, ls, cls} {
		if err := r.realizePasses(p, c.scs, parent, s, lat); err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
	}
	return nil
}

// solveCLS builds PCF-CLS the way eval does: logical sequences from
// the logical-flow decomposition on graphs of at most 24 links and from
// the quick heuristic on larger ones, segment tunnels for
// unconditional sequences, then the solve.
func (r *run) solveCLS(in *instance, parent int) (*core.Plan, error) {
	var c *core.Instance
	err := r.tr.do("core.build_cls", parent, func() error {
		var err error
		if in.g.NumLinks() <= 24 {
			c, _, err = core.BuildCLS(in.base(), core.FlowOptions{SparseSupport: 3})
		} else {
			c, _, err = core.BuildCLSQuick(in.base())
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := r.augmentCLS(c, parent); err != nil {
		return nil, err
	}
	var plan *core.Plan
	err = r.tr.do("core.cls", parent, func() error {
		var err error
		plan, err = core.SolvePCFCLS(c, core.SolveOptions{})
		return err
	})
	return plan, err
}

// gadgets reproduces Fig 2 and Table 1 and checks them against the
// paper's values.
func (r *run) gadgets(s sample, parent int) error {
	start := time.Now()
	var fig2, table1 *eval.Table
	err := r.tr.do("eval.fig2", parent, func() error {
		var err error
		fig2, err = eval.Fig2()
		return err
	})
	if r.op(err) != nil {
		return fmt.Errorf("fig 2: %w", err)
	}
	err = r.tr.do("eval.table1", parent, func() error {
		var err error
		table1, err = eval.Table1()
		return err
	})
	if r.op(err) != nil {
		return fmt.Errorf("table 1: %w", err)
	}
	s["solve_s"] += time.Since(start).Seconds()
	// Fig 2: FFC-3, FFC-4 and Optimal under f=1 and f=2.
	r.expectCells("fig 2 f=1", fig2.Rows[0][1:], 1.5, 1.0, 2.0)
	r.expectCells("fig 2 f=2", fig2.Rows[1][1:], 0.5, 0.0, 1.0)
	// Table 1: Optimal, FFC, PCF-TF, PCF-LS, PCF-CLS, R3.
	r.expectCells("table 1", table1.Rows[0], 1, 0, 2.0/3, 4.0/5, 1, 0)
	return nil
}

// expectCells compares printed table cells with the paper's values to
// the table's four printed decimals.
func (r *run) expectCells(what string, cells []string, want ...float64) {
	if len(cells) < len(want) {
		r.fail("%s: %d cells, want %d", what, len(cells), len(want))
		return
	}
	for i, w := range want {
		f := append(strings.Fields(cells[i]), "")
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil || math.Abs(v-w) > 1e-4 {
			r.fail("%s: cell %d = %q, want %.4f", what, i, cells[i], w)
		}
	}
}
