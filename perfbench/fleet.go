package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/fleet"
	"pcf/internal/routing"
	"pcf/internal/serve"
	"pcf/internal/telemetry"
)

const (
	fleetTopology     = "ATT"
	fleetPairs        = 24
	fleetBudget       = 2
	fleetClients      = 2
	fleetTMSeed       = 1
	fleetRequests     = 8000 // per round, split evenly over the clients
	fleetPublishEvery = 4000 // completed requests between publishes
	fleetSamples      = 16   // served answers per round re-checked cold
	fleetWait         = 30 * time.Second
)

// fleetServe is one planner and two replicas in this process on
// loopback HTTP, each with its own prepared instance (ATT at f=2 with a
// PCF-CLS configuration) and its own state directory. The instance is
// the same for every workload seed, as in synth1k-plan: the seed orders
// the scenarios, the requests and the re-checked sample. Set-up prepares
// the three instances, solves the two plans the planner alternates
// between (PCF-CLS and PCF-TF on the same instance), brings the nodes
// up and waits until the first publish is served by every replica. A
// round has the planner solve both plans again, then sends a fixed
// number of /v1/realize requests from two closed-loop clients, one per
// replica, over seeded-shuffled scenarios; at fixed request counts the
// planner publishes the other plan, which runs validation, checkpoint,
// swap, push and replica re-validation.
func fleetServe(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	o := prepOpts{Topology: fleetTopology, TMSeed: fleetTMSeed, MaxPairs: fleetPairs, Budget: fleetBudget}
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	base, err := os.MkdirTemp(tmp, "fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	var f *fleetNodes
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	const reps = 3
	err = r.setupReps(reps, func(s sample, sp int) error {
		if f != nil {
			f.stop()
			f = nil
		}
		var err error
		f, err = r.startFleet(o, filepath.Join(base, strconv.Itoa(len(r.setups))), s, sp)
		if err != nil || len(r.setups) < reps-1 {
			return err
		}
		// Once, outside setup_s: the in-process online response of both
		// plans, every realization checked, the reference for
		// serve.overhead_us.
		var lat []float64
		for _, p := range f.plans {
			if err := r.realizePasses(p, scenarios(p.Instance.Failures, rng), sp, s, &lat); err != nil {
				return err
			}
		}
		s["routing.realize_p50_us"] = 1e6 * quantile(lat, 0.5)
		return nil
	})
	if err != nil {
		return err
	}
	scs := scenarios(f.plans[0].Instance.Failures, rng)
	queries := make([]string, len(scs))
	for i, sc := range scs {
		var ids []int
		for l, dead := range sc.Dead {
			if dead {
				ids = append(ids, int(l))
			}
		}
		sort.Ints(ids)
		q := make([]string, len(ids))
		for k, id := range ids {
			q[k] = strconv.Itoa(id)
		}
		queries[i] = "/v1/realize?links=" + strings.Join(q, ",")
	}
	next := 0
	return r.measure(3, func(s sample, sp int) error {
		return r.fleetRound(f, scs, queries, &next, rng, s, sp)
	})
}

// fleetNodes is a running planner and its replicas.
type fleetNodes struct {
	plans    [2]*core.Plan // alternately published
	planner  *serve.Server
	control  *fleet.Planner
	replicas []*serve.Server
	reps     []*fleet.Replica
	urls     []string // replica base URLs
	http     []*http.Server
	serving  sync.WaitGroup // HTTP servers and replica sync loops
	cancel   context.CancelFunc
	records  atomic.Int64 // telemetry records emitted by every node
	pushes   atomic.Int64 // planner pushes, and their summed duration
	pushWait atomic.Int64
	round    atomic.Int64 // span of the round in progress, parent of handler spans
	client   *http.Client

	mu     sync.Mutex
	epochs map[uint64]*core.Plan // every epoch the planner published
}

// startFleet prepares the nodes' instances, solves the plans, starts
// the planner and replicas, and publishes the first plan. setup_s
// covers everything but the plan solves.
func (r *run) startFleet(o prepOpts, dir string, s sample, parent int) (*fleetNodes, error) {
	start := time.Now()
	f := &fleetNodes{epochs: map[uint64]*core.Plan{}}
	f.client = &http.Client{
		Timeout:   fleetWait,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4 * fleetClients, DisableCompression: true},
	}
	var insts []*core.Instance
	for i := 0; i <= 2; i++ {
		in, err := r.prepare(o, s, parent)
		if err != nil {
			return nil, err
		}
		var c *core.Instance
		err = r.tr.do("core.build_cls", parent, func() error {
			var err error
			c, _, err = core.BuildCLSQuick(in.base())
			return err
		})
		if r.op(err) != nil {
			return nil, fmt.Errorf("building CLS instance: %w", err)
		}
		if err := r.augmentCLS(c, parent); err != nil {
			return nil, err
		}
		insts = append(insts, c)
	}
	prep := time.Since(start)
	if err := r.solvePlans(f, insts[0], s, parent); err != nil {
		return nil, err
	}
	upStart := time.Now()

	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	counter := telemetry.EmitterFunc(func(rec telemetry.Record) {
		f.records.Add(1)
		if rec.Kind == telemetry.KindPush {
			f.pushes.Add(1)
			f.pushWait.Add(int64(rec.Dur))
		}
	})
	newNode := func(i int, name string) (*serve.Server, error) {
		return serve.NewServer(serve.Config{
			Instance:     insts[i],
			StateDir:     filepath.Join(dir, name),
			Telemetry:    counter,
			Source:       name,
			DrainTimeout: time.Second,
		})
	}
	var err error
	f.planner, err = newNode(0, "planner")
	if err != nil {
		return nil, err
	}
	f.control = fleet.NewPlanner(f.planner, fleet.PlannerConfig{LeaseTTL: 10 * time.Minute})
	plannerURL, err := f.listen(f.control)
	if err != nil {
		f.stop()
		return nil, err
	}
	if err := r.publish(f, 0, s, parent); err != nil {
		f.stop()
		return nil, err
	}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("replica-%d", i)
		srv, err := newNode(i, name)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		url := "http://" + ln.Addr().String()
		rep := fleet.NewReplica(srv, fleet.ReplicaConfig{
			Name:         name,
			PlannerURL:   plannerURL,
			AdvertiseURL: url,
			Client:       f.client,
			// Pushes carry every publish; the pull loop only registers
			// the replica and backs pushes up.
			Interval:   time.Minute,
			BackoffMin: 50 * time.Millisecond,
			BackoffMax: time.Second,
			JitterSeed: int64(i),
		})
		f.reps = append(f.reps, rep)
		f.urls = append(f.urls, url)
		f.serve(ln, r.spanPushes(f, rep))
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			rep.Run(ctx)
		}()
	}
	deadline := time.Now().Add(fleetWait)
	for len(f.control.Granter().PushTargets(time.Hour)) < len(f.reps) || !f.served(1) {
		if time.Now().After(deadline) {
			f.stop()
			return nil, errors.New("fleet: replicas did not register and serve the first epoch")
		}
		time.Sleep(200 * time.Microsecond)
	}
	s["setup_s"] = (prep + time.Since(upStart)).Seconds()
	return f, nil
}

// solvePlans has the planner solve the two plans it publishes, PCF-CLS
// and PCF-TF on its instance, and checks them: PCF-TF ≤ PCF-CLS, and
// (P1) on PCF-TF.
func (r *run) solvePlans(f *fleetNodes, in *core.Instance, s sample, parent int) error {
	cls, err := r.solve("core.cls", parent, s, func(int) (*core.Plan, error) {
		return core.SolvePCFCLS(in, core.SolveOptions{})
	})
	if err != nil {
		return err
	}
	tf, err := r.solve("core.tf", parent, s, func(int) (*core.Plan, error) {
		return core.SolvePCFTF(in, core.SolveOptions{})
	})
	if err != nil {
		return err
	}
	if !within(tf.Value, cls.Value) {
		r.fail("fleet: PCF-TF %.6f above PCF-CLS %.6f", tf.Value, cls.Value)
	}
	if err := checkP1(tf); err != nil {
		r.fail("fleet PCF-TF (P1): %v", err)
	}
	f.plans = [2]*core.Plan{cls, tf}
	return nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (f *fleetNodes) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.serve(ln, h)
	return "http://" + ln.Addr().String(), nil
}

func (f *fleetNodes) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: fleetWait}
	f.http = append(f.http, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		hs.Serve(ln)
	}()
}

// spanPushes wraps a replica's handler so the traced run records a
// fleet.apply span for every plan push it handles, under the round in
// progress.
func (r *run) spanPushes(f *fleetNodes, h http.Handler) http.Handler {
	if !r.tr.on {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != fleet.PlanPath || req.Method != http.MethodPost {
			h.ServeHTTP(w, req)
			return
		}
		sp := r.tr.begin("fleet.apply", int(f.round.Load()))
		h.ServeHTTP(w, req)
		r.tr.end(sp)
	})
}

// served reports whether every replica serves epoch or later.
func (f *fleetNodes) served(epoch uint64) bool {
	for _, srv := range f.replicas {
		if srv.Registry().Epoch() < epoch {
			return false
		}
	}
	return len(f.replicas) > 0
}

// stop shuts every node down and waits for its goroutines.
func (f *fleetNodes) stop() {
	if f.cancel != nil {
		f.cancel()
	}
	if f.control != nil {
		f.control.Drain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), fleetWait)
	defer cancel()
	for _, hs := range f.http {
		hs.Shutdown(ctx)
	}
	f.serving.Wait()
	for _, srv := range append([]*serve.Server{f.planner}, f.replicas...) {
		if srv != nil {
			srv.Close()
		}
	}
	f.client.CloseIdleConnections()
}

// publish has the planner publish plans[i], waits until every replica
// serves the new epoch, and checks that each serves the planner's plan
// value. It records the time until every replica serves and the
// publication sweep's wall time in validate_s; the serve.publish span
// times the planner side.
func (r *run) publish(f *fleetNodes, i int, s sample, parent int) error {
	plan := f.plans[i]
	sp := r.tr.begin("serve.publish", parent)
	start := time.Now()
	pub, err := f.planner.Registry().Publish(context.Background(), plan)
	r.tr.end(sp)
	if r.op(err) != nil {
		return fmt.Errorf("fleet publish: %w", err)
	}
	f.mu.Lock()
	f.epochs[pub.Epoch] = plan
	f.mu.Unlock()
	s["validate_s"] += pub.Validated.Total.Seconds()
	sweepCounters(s, &pub.Validated)
	if len(f.replicas) == 0 {
		return nil
	}
	deadline := start.Add(fleetWait)
	for !f.served(pub.Epoch) {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: epoch %d not served by every replica after %v", pub.Epoch, fleetWait)
		}
		time.Sleep(100 * time.Microsecond)
	}
	served := time.Since(start)
	s["fleet.publishes"]++
	s["fleet.served_ms_sum"] += ms(served)
	s["fleet.publish_served_ms"] = s["fleet.served_ms_sum"] / s["fleet.publishes"]
	for k, srv := range f.replicas {
		cur, err := srv.Registry().Current()
		if err != nil || cur.Value != pub.Value {
			r.fail("fleet: replica %d serves %v after epoch %d, planner value %g (%v)", k+1, cur, pub.Epoch, pub.Value, err)
		}
	}
	if r.tr.on {
		r.envelopeProbe(f, pub, s, parent)
	}
	return nil
}

// envelopeProbe times the envelope round trip a push performs —
// encode on the planner, decode against a replica's instance — and
// records the envelope's size.
func (r *run) envelopeProbe(f *fleetNodes, pub *serve.Published, s sample, parent int) {
	var data []byte
	err := r.tr.do("serve.envelope_encode", parent, func() error {
		env, err := serve.NewEnvelope(pub.Epoch, serve.Fingerprint(f.planner.Instance()), pub.Plan)
		if err != nil {
			return err
		}
		data, err = env.Encode()
		return err
	})
	if err == nil {
		err = r.tr.do("serve.envelope_decode", parent, func() error {
			env, err := serve.DecodeEnvelope(data)
			if err != nil {
				return err
			}
			in := f.replicas[0].Instance()
			_, err = env.DecodePlan(in, serve.Fingerprint(in))
			return err
		})
	}
	if err != nil {
		r.fail("fleet: envelope round trip of epoch %d: %v", pub.Epoch, err)
	}
	s["serve.envelope_kb"] = float64(len(data)) / 1024
}

var errStatus = errors.New("realize request not answered 200")

// answer is what one realize request was served.
type answer struct {
	scenario int
	status   int
	epoch    uint64
	mlu      float64
	maxU     float64
	lat      time.Duration
}

// fleetRound has the planner solve its two plans again, then sends
// fleetRequests realize requests from fleetClients closed-loop clients
// and publishes the other plan after every fleetPublishEvery completed
// requests, then checks every answer.
func (r *run) fleetRound(f *fleetNodes, scs []failures.Scenario, queries []string, next *int, rng *rand.Rand, s sample, parent int) error {
	f.round.Store(int64(parent))
	if err := r.solvePlans(f, f.planner.Instance(), s, parent); err != nil {
		return err
	}
	runtime.GC()
	shed0, applied0, records0 := f.shed(), f.applied(), f.records.Load()
	pushes0, pushWait0 := f.pushes.Load(), f.pushWait.Load()
	var done atomic.Int64
	pubs := make(chan struct{}, fleetRequests/fleetPublishEvery) // one slot per publish of the round
	pubErr := make(chan error, 1)
	go func() {
		var err error
		for range pubs {
			if err == nil {
				*next = 1 - *next
				err = r.publish(f, *next, s, parent)
			}
		}
		pubErr <- err
	}()
	answers := make([][]answer, fleetClients)
	offset := rng.Intn(len(queries))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per := fleetRequests / fleetClients
			out := make([]answer, 0, per)
			url := f.urls[c%len(f.urls)]
			for i := 0; i < per; i++ {
				k := (offset + c*per + i) % len(queries)
				sp := r.tr.begin("http.realize", parent)
				a := f.realize(url+queries[k], k)
				r.tr.end(sp)
				out = append(out, a)
				if n := done.Add(1); n%fleetPublishEvery == 0 {
					pubs <- struct{}{}
				}
			}
			answers[c] = out
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(pubs)
	if err := <-pubErr; err != nil {
		return err
	}
	var lat []float64
	var all []answer
	for _, out := range answers {
		for _, a := range out {
			var err error
			if a.status != http.StatusOK {
				err = errStatus
			}
			r.op(err)
			lat = append(lat, a.lat.Seconds())
			all = append(all, a)
		}
	}
	s["realize_rps"] = float64(len(all)) / wall.Seconds()
	latencies(s, lat)
	s["serve.overhead_us"] = 1e3*s["realize_p50_ms"] - r.value("routing.realize_p50_us")
	s["serve.shed"] = float64(f.shed() - shed0)
	s["fleet.applied"] = float64(f.applied() - applied0)
	s["telemetry.records"] = float64(f.records.Load() - records0)
	if n := f.pushes.Load() - pushes0; n > 0 {
		s["fleet.push_wait_ms"] = ms(time.Duration(f.pushWait.Load()-pushWait0)) / float64(n)
	}
	r.checkAnswers(f, scs, all, rng)
	return nil
}

// realize performs one realize request and decodes its answer.
func (f *fleetNodes) realize(url string, k int) answer {
	a := answer{scenario: k}
	start := time.Now()
	resp, err := f.client.Post(url, "application/json", nil)
	if err != nil {
		a.lat = time.Since(start)
		return a
	}
	var body struct {
		Epoch uint64  `json:"epoch"`
		MLU   float64 `json:"mlu"`
		MaxU  float64 `json:"max_u"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	a.lat = time.Since(start)
	a.status = resp.StatusCode
	if err != nil && a.status == http.StatusOK {
		a.status = -1
	}
	a.epoch, a.mlu, a.maxU = body.Epoch, body.MLU, body.MaxU
	return a
}

// checkAnswers verifies every answered request — on an epoch the
// planner published, MLU ≤ 1 — and re-computes a seeded sample of them
// with a fresh cold routing.Realize of that epoch's plan.
func (r *run) checkAnswers(f *fleetNodes, scs []failures.Scenario, all []answer, rng *rand.Rand) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range all {
		if a.status != http.StatusOK {
			continue // counted as a failed operation
		}
		if f.epochs[a.epoch] == nil {
			r.fail("fleet: answer on epoch %d the planner never published", a.epoch)
		}
		if a.mlu > 1+1e-9 {
			r.fail("fleet: answer on epoch %d under %v has MLU %g > 1", a.epoch, scs[a.scenario], a.mlu)
		}
	}
	for i := 0; i < fleetSamples && len(all) > 0; i++ {
		a := all[rng.Intn(len(all))]
		plan := f.epochs[a.epoch]
		if plan == nil || a.status != http.StatusOK {
			continue
		}
		real, err := routing.Realize(plan, scs[a.scenario])
		if err != nil {
			r.fail("fleet: cold realize of epoch %d under %v: %v", a.epoch, scs[a.scenario], err)
			continue
		}
		maxU := 0.0
		for _, u := range real.U {
			maxU = max(maxU, u)
		}
		mlu := routing.MLUOf(plan.Instance.Graph, real)
		if !close9(a.mlu, mlu) || !close9(a.maxU, maxU) {
			r.fail("fleet: epoch %d under %v served mlu %.12g max_u %.12g, cold realize %.12g %.12g",
				a.epoch, scs[a.scenario], a.mlu, a.maxU, mlu, maxU)
		}
	}
}

func close9(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

func (f *fleetNodes) shed() int64 {
	var n int64
	for _, srv := range f.replicas {
		n += srv.Admission().Shed()
	}
	return n
}

func (f *fleetNodes) applied() int64 {
	var n int64
	for _, rep := range f.reps {
		n += rep.Applied()
	}
	return n
}
