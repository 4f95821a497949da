package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer. Spans of one
// operation share Op; Parent is the index of the enclosing span, -1 for
// a root.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// Layer is the part of the name before the first dot ("proto.dial" is
// in layer "proto").
func (s Span) Layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// Tracer keeps spans in memory. A nil *Tracer records nothing, so the
// untraced run pays one nil check per call site.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span // guarded by mu
}

// NewTracer returns a tracer with room for capHint spans.
func NewTracer(capHint int) *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, capHint)}
}

// Begin opens a span and returns its index (-1 when tracing is off).
func (t *Tracer) Begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// End closes span i.
func (t *Tracer) End(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// EndAt closes span i at t (for an end observed on another goroutine).
func (t *Tracer) EndAt(i int, at time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = at.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// Record adds an already-timed span (for intervals whose start is
// observed on another goroutine, such as ack → application start).
func (t *Tracer) Record(name string, parent int, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Parent: parent, Op: op,
	})
	t.mu.Unlock()
}

// Spans returns the closed spans, in the order they were begun. A span
// whose parent never closed (a failed operation) becomes a root.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	index := make([]int, len(t.spans)) // old index → new, -1 when dropped
	for i, s := range t.spans {
		index[i] = -1
		if s.End < s.Start {
			continue
		}
		if s.Parent >= 0 {
			s.Parent = index[s.Parent]
		}
		index[i] = len(out)
		out = append(out, s)
	}
	return out
}

// WriteJSONL writes one span per line.
func WriteJSONL(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LayerTime is the self time and span count of one layer.
type LayerTime struct {
	Layer string
	Self  time.Duration
	Spans int
}

// SelfTimes returns each layer's self time: a span's duration minus the
// part of its interval that its children cover (overlapping children
// count once, and the part of a child outside its parent is ignored).
// Layers are sorted by self time, largest first.
func SelfTimes(spans []Span) []LayerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := map[string]*LayerTime{}
	for i, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[i])
		lt := agg[s.Layer()]
		if lt == nil {
			lt = &LayerTime{Layer: s.Layer()}
			agg[s.Layer()] = lt
		}
		lt.Self += time.Duration(self)
		lt.Spans++
	}
	out := make([]LayerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Self != out[k].Self {
			return out[i].Self > out[k].Self
		}
		return out[i].Layer < out[k].Layer
	})
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, k int) bool { return iv[i][0] < iv[k][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if curHi < curLo || a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	flush()
	return total
}

// FormatSelfTimes renders the per-layer self-time table.
func FormatSelfTimes(lts []LayerTime) string {
	var total time.Duration
	for _, lt := range lts {
		total += lt.Self
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %7s %8s\n", "layer", "self_ms", "share", "spans")
	for _, lt := range lts {
		share := 0.0
		if total > 0 {
			share = 100 * float64(lt.Self) / float64(total)
		}
		fmt.Fprintf(&b, "%-12s %12.3f %6.1f%% %8d\n", lt.Layer, float64(lt.Self)/1e6, share, lt.Spans)
	}
	return b.String()
}

// layers are the packages the benchmark's spans are attributed to;
// "op" is the benchmark's own code around them.
var layers = []string{"proto", "serverd", "mom", "tm", "mauid", "esp", "experiments", "op"}

// reportShares sets each layer's share of the traced self time.
func reportShares(rep *Report, spans []Span) {
	lts := SelfTimes(spans)
	var total time.Duration
	for _, lt := range lts {
		total += lt.Self
	}
	self := map[string]time.Duration{}
	for _, lt := range lts {
		self[lt.Layer] = lt.Self
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[l]) / float64(total)
		}
		rep.Set(l+".self_pct", share, "%", 0)
	}
	rep.Set("trace.spans", float64(len(spans)), "count", 0)
}

// reportOverhead compares an operation's median with tracing off and on.
func reportOverhead(rep *Report, name string, untraced, traced *Sample) {
	u, t := untraced.Quantile(0.5), traced.Quantile(0.5)
	rep.Set("trace.untraced_"+name+"_p50_ms", u/1e6, "ms", untraced.N())
	rep.Set("trace.traced_"+name+"_p50_ms", t/1e6, "ms", traced.N())
	rep.Set("trace.overhead_pct", 100*(t-u)/u, "%", traced.N())
}
