package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the enclosing span's
// ID (0 for a root); times are offsets from the tracer's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run; when off, begin
// returns 0 and end does nothing, so untraced runs pay one branch per
// call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now()}
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns its error.
func (t *tracer) do(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns, for each root span name, one map per root span of
// that name (in start order) from descendant span name to its summed
// self time in milliseconds. A span's self time is its duration minus
// the part of its interval that its children cover.
func (t *tracer) selfTimes() map[string][]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	root := make([]int, len(t.spans)+1) // span ID -> root ancestor ID
	slot := map[int]int{}               // root ID -> index among roots of its name
	out := map[string][]map[string]float64{}
	for _, s := range t.spans { // parents precede children
		if s.Parent == 0 {
			root[s.ID] = s.ID
			slot[s.ID] = len(out[s.Name])
			out[s.Name] = append(out[s.Name], map[string]float64{})
			continue
		}
		root[s.ID] = root[s.Parent]
		r := t.spans[root[s.ID]-1]
		self := s.End - s.Start - covered(s, t.spans, children[s.ID])
		out[r.Name][slot[r.ID]][s.Name] += float64(self) / float64(time.Millisecond)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		c := spans[k-1]
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// dump writes every span as JSON to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
