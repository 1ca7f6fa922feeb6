// Command perfbench is pcf's end-to-end and per-layer benchmark. It sits
// outside the program: it generates each workload's inputs from a seed,
// calls the public functions of eval, core, routing, mcf, serve and
// fleet directly (and drives HTTP over loopback for the fleet), checks
// every output against independent computations, and prints one JSON
// result line.
//
//	perfbench --workload zoo-eval --seed 1 --seconds 25 --trace 0
//	perfbench repeat --workload fleet-serve --runs 5
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics derived from spans kept in
// memory around every call into a layer, and the span dump is written
// under .bench_build/traces/. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics every workload reports with --trace 0.
// realize_p99_ms is measured too but only printed in the report lines:
// publishes land in the tail, so it does not repeat within a bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"validate_s", "s"},
	{"realize_rps", "1/s"},
	{"realize_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every workload reports with --trace 1. A
// layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"topozoo.load_ms", "ms"},
	{"traffic.gravity_ms", "ms"},
	{"traffic.top_pairs_ms", "ms"},
	{"tunnels.select_ms", "ms"},
	{"eval.prepare_alloc_mb", "MB"},
	{"mcf.scale_ms", "ms"},
	{"core.build_cls_ms", "ms"},
	{"core.ffc_ms", "ms"},
	{"core.tf_ms", "ms"},
	{"core.ls_ms", "ms"},
	{"core.cls_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"core.rounds", "count"},
	{"core.cuts", "count"},
	{"core.warm_hits", "count"},
	{"lp.iterations", "count"},
	{"lp.iters_per_s", "1/s"},
	{"lp.refactors", "count"},
	{"lp.max_eta_len", "count"},
	{"lp.fill_ratio", "ratio"},
	{"routing.validate_ms", "ms"},
	{"routing.base_factor_ms", "ms"},
	{"routing.scenario_us", "us"},
	{"routing.check_us", "us"},
	{"routing.smw_hits", "count"},
	{"routing.fallbacks", "count"},
	{"routing.batch_hits", "count"},
	{"routing.max_rank", "count"},
	{"failures.scenarios", "count"},
	{"routing.realize_us", "us"},
	{"routing.realize_first_pass_us", "us"},
	{"eval.cls_below_ls", "count"},
	{"mcf.optimal_ms", "ms"},
	{"mcf.lp_iterations", "count"},
	{"mcf.warm_hits", "count"},
	{"mcf.scenario_ms", "ms"},
	{"serve.overhead_us", "us"},
	{"serve.shed", "count"},
	{"telemetry.records", "count"},
	{"serve.publish_ms", "ms"},
	{"serve.envelope_encode_ms", "ms"},
	{"serve.envelope_decode_ms", "ms"},
	{"serve.envelope_kb", "KiB"},
	{"fleet.apply_ms", "ms"},
	{"fleet.push_wait_ms", "ms"},
	{"fleet.applied", "count"},
	{"fleet.publish_served_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.alloc_mb", "MB"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"zoo-eval":     zooEval,
	"synth1k-plan": synthPlan,
	"fleet-serve":  fleetServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "repeat" {
		if err := repeat(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: zoo-eval, synth1k-plan or fleet-serve")
	seed := fl.Int64("seed", 1, "workload seed: drives TM seeds, scenario shuffles and request order")
	seconds := fl.Float64("seconds", 25, "how long to repeat whole measured rounds")
	trace := fl.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	r := newRun(*seed, *seconds, *trace == 1)
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := r.result()
	r.report(os.Stdout)
	if r.tr.on {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", *name, *seed))
		if err := r.tr.dump(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing span dump: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("span dump: %s (%d spans)\n", path, len(r.tr.spans))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run accumulates one benchmark run: operation counts, check failures,
// and the metric values of every set-up repetition and measured round.
type run struct {
	seed     int64
	seconds  float64
	tr       *tracer
	problems []string

	attempted, failed int

	// setups and rounds hold one sample map per set-up repetition and
	// per measured round; the reported value of each key is its median.
	setups []sample
	rounds []sample
}

// sample is the metric values of one set-up repetition or round:
// end-to-end values under their own names, layer counters under
// theirs.
type sample map[string]float64

func newRun(seed int64, seconds float64, traced bool) *run {
	return &run{seed: seed, seconds: seconds, tr: newTracer(traced)}
}

// op counts one operation and its failure, returning err unchanged.
func (r *run) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

// fail records a correctness-check failure.
func (r *run) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setupReps runs fn reps times, each as its own "setup" root span with
// its own sample; fn reports setup_s and any layer counters into s.
func (r *run) setupReps(reps int, fn func(s sample, span int) error) error {
	for i := 0; i < reps; i++ {
		s := sample{}
		sp := r.tr.begin("setup", 0)
		err := fn(s, sp)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, s)
	}
	return nil
}

// measure repeats whole rounds for the run's seconds: it runs at least
// minRounds, and starts another only while the previous round's
// duration still fits in the time left, so a run ends close to its
// seconds. Each round starts from a collected heap, is a "round" root
// span with its own sample, and records the Go runtime's GC cycles and
// allocation over the round.
func (r *run) measure(minRounds int, fn func(s sample, span int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i < minRounds || time.Since(start)+last <= time.Duration(r.seconds*float64(time.Second)); i++ {
		s := sample{}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		roundStart := time.Now()
		sp := r.tr.begin("round", 0)
		err := fn(s, sp)
		r.tr.end(sp)
		last = time.Since(roundStart)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		s["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
		s["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		r.rounds = append(r.rounds, s)
	}
	return nil
}

// value is the reported value of key: its median over the measured
// rounds when they recorded it, otherwise over the set-up samples.
func (r *run) value(key string) float64 {
	for _, group := range [][]sample{r.rounds, r.setups} {
		var vals []float64
		for _, s := range group {
			if v, ok := s[key]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			return median(vals)
		}
	}
	return 0
}

func (r *run) result() result {
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if r.tr.on {
		defs = perLayer
		self := r.tr.selfTimes()
		for root, group := range map[string][]sample{"setup": r.setups, "round": r.rounds} {
			for i, times := range self[root] {
				if i >= len(group) {
					break
				}
				for name, ms := range times {
					group[i][name+"_ms"] = ms
				}
			}
		}
	}
	for _, d := range defs {
		v := r.value(d.Name)
		if d.Name == "peak_rss_mb" {
			v = peakRSSMB()
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res
}

// report prints every metric the run gathered, end-to-end and
// per-layer, plus check failures, as human-readable lines.
func (r *run) report(w *os.File) {
	fmt.Fprintf(w, "rounds %d, set-ups %d, attempted %d, failed %d\n",
		len(r.rounds), len(r.setups), r.attempted, r.failed)
	keys := map[string]bool{}
	for _, group := range [][]sample{r.setups, r.rounds} {
		for _, s := range group {
			for k := range s {
				keys[k] = true
			}
		}
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %.6g\n", k, r.value(k))
	}
	fmt.Fprintf(w, "  %-32s %.6g\n", "peak_rss_mb", peakRSSMB())
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
