package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeat runs one workload N times, each in its own process with the
// next seed, and prints each metric's median, quartiles, interquartile
// spread and min/max spread as shares of the median — the figures the
// bounds in BENCHMARK.json are set from.
func repeat(args []string) error {
	fl := flag.NewFlagSet("perfbench repeat", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to repeat")
	runs := fl.Int("runs", 10, "number of runs")
	seed0 := fl.Int64("seed0", 1, "seed of the first run; run i uses seed0+i")
	seconds := fl.Float64("seconds", 25, "--seconds of each run")
	trace := fl.Int("trace", 0, "--trace of each run")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []float64
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(*trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d failed its checks:\n%s", seed, out)
		}
		shares = append(shares, float64(res.Failed)/float64(res.Attempted))
		fmt.Printf("seed %d: attempted %d failed %d", seed, res.Attempted, res.Failed)
		for _, k := range sortedKeys(res.Metrics) {
			m := res.Metrics[k]
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			fmt.Printf(" %s=%.4g", k, m.Value)
		}
		fmt.Println()
	}
	fmt.Printf("\n%-30s %-6s %11s %11s %11s %8s %8s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, k := range sortedKeys(values) {
		v := values[k]
		med := median(v)
		q1, q3 := pyQuartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Printf("%-30s %-6s %11.5g %11.5g %11.5g %8.3f %8.3f\n", k, units[k], med, q1, q3, (q3-q1)/med, (hi-lo)/med)
	}
	fmt.Printf("failed share per run: %v\n", shares)
	return nil
}

// pyQuartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method).
func pyQuartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// lastResult decodes the JSON result on the last line of a run's
// output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("decoding result line %q: %w", last, err)
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
