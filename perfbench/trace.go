package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the layer's public function. The spans of one op share
// Op; Parent is the id of the enclosing span, -1 for an op's root.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the same op code runs traced and untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as a
// task's start offset and duration from the engine's run report.
func (t *tracer) add(op int64, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// durations returns the wall times of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums, per layer, each span's duration minus the part of
// its interval covered by its children.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := coveredNanos(s.Start, s.End, children[s.ID])
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNanos is the length of the union of the children's intervals
// clipped to [lo, hi]. Children may overlap: engine tasks run
// concurrently.
func coveredNanos(lo, hi int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// write stores the spans and the environment stamp as JSON.
func (t *tracer) write(path string, env map[string]string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Env   map[string]string `json:"env"`
		Spans []span            `json:"spans"`
	}{env, t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// printSelfTimes prints each layer's self time, largest first.
func printSelfTimes(w io.Writer, self map[string]time.Duration) {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintln(w, "layer self time (summed over traced ops):")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %10.3f s\n", l, self[l].Seconds())
	}
}
