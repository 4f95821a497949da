// Command perfbench is the batch system's benchmark. It runs one
// workload against the real packages, checks that the outputs are
// correct, and prints every metric by name with its unit and sample
// count; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run measures half its time untraced
// and half traced, writes the spans under -out, and reports the
// per-layer metrics and the tracing overhead. Run it through run.sh,
// which builds it from source:
//
//	bash perfbench/run.sh --workload deep-queue --seed 3 --seconds 20 --trace 0
//
// The workloads, their metrics and the layer each metric belongs to are
// listed in metrics.json beside this file. The benchmark's own tests run
// with `go test ./...` from this directory; -short skips the full-size
// runs.
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
	"strings"
	"time"
)

// Config is one invocation of a workload.
type Config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Short shrinks the workload to a quick correctness pass.
	Short bool
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"` // samples behind the value; 0 = a single count
	Note  string  `json:"-"`
}

// Report is what a workload run produces.
type Report struct {
	Attempted int
	Failed    int
	Errors    []string
	// Metrics holds every metric the run measured, by its full name.
	Metrics map[string]Metric
	// Spans is the traced phase's spans (nil when untraced).
	Spans []Span
}

func newReport() *Report { return &Report{Metrics: map[string]Metric{}} }

// Failf records a failed operation with its reason. Only the first few
// reasons are kept.
func (r *Report) Failf(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Checkf records a correctness check that is not tied to one operation.
func (r *Report) Checkf(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failf(format, args...)
	}
}

// Set records a metric.
func (r *Report) Set(name string, value float64, unit string, n int) {
	r.Metrics[name] = Metric{Value: value, Unit: unit, N: n}
}

// SetQuantiles records a sample's p50, p90 and p99 (value/scale, in
// unit), and its tail: the highest percentile with at least ten samples
// beyond it. A p90 or p99 with fewer than ten samples beyond it is
// marked as thin.
func (r *Report) SetQuantiles(name string, s *Sample, scale float64, unit string) {
	r.Set(name+"_p50_"+unit, s.Quantile(0.5)/scale, unit, s.N())
	for _, q := range []struct {
		level float64
		tag   string
	}{{0.9, "_p90_"}, {0.99, "_p99_"}} {
		m := Metric{Value: s.Quantile(q.level) / scale, Unit: unit, N: s.N()}
		if !s.TailOK(q.level, minTailBeyond) {
			m.Note = fmt.Sprintf("thin: %d beyond", s.Beyond(q.level))
		}
		r.Metrics[name+q.tag+unit] = m
	}
	if q, ok := s.Tail(minTailBeyond); ok {
		r.Metrics[name+"_tail_"+unit] = Metric{
			Value: s.Quantile(q) / scale, Unit: unit, N: s.N(),
			Note: fmt.Sprintf("p%g, %d beyond", q*100, s.Beyond(q)),
		}
	}
}

// minTailBeyond is how many samples must lie beyond a reported tail.
const minTailBeyond = 10

type workloadFunc func(cfg Config) *Report

var workloads = map[string]workloadFunc{
	"live-mix":   runLiveMix,
	"deep-queue": runDeepQueue,
	"esp-sim":    runESPSim,
}

// heapInuseMB forces a collection and reports the live heap spans. The
// second collection empties the sync.Pool victim caches the first one
// only demotes, so pooled buffers do not count.
func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: live-mix, deep-queue or esp-sim")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cat, err := LoadCatalog()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	traced := *trace == 1

	rep := fn(Config{Seed: *seed, Seconds: *seconds, Trace: traced})
	// Every run also checks the workload, shortened, at the held-out
	// seed. Tune nothing against it: it catches a change that is correct
	// only on the seeds it was measured with.
	heldOutSeed := cat.HeldOutSeed
	held := fn(Config{Seed: heldOutSeed, Seconds: 1, Short: true})
	fmt.Printf("held-out seed %d: attempted %d, failed %d\n", heldOutSeed, held.Attempted, held.Failed)
	rep.Attempted += held.Attempted
	rep.Failed += held.Failed
	for _, e := range held.Errors {
		rep.Errors = append(rep.Errors, fmt.Sprintf("held-out seed %d: %s", heldOutSeed, e))
	}
	if rep.Attempted > 0 {
		rep.Set("failed_ratio", float64(rep.Failed)/float64(rep.Attempted), "ratio", rep.Attempted)
	}

	want := cat.EndToEnd
	if traced {
		want = cat.PerLayer
	}
	result := map[string]Metric{}
	for _, m := range want {
		v, ok := m.Resolve(*name, rep.Metrics)
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rep.Checkf(false, "metric %s not measured on %s", m.Name, *name)
			continue
		}
		result[m.Name] = v
	}

	if traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		} else if err := WriteJSONL(path, rep.Spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", len(rep.Spans), path)
		}
		fmt.Print(FormatSelfTimes(SelfTimes(rep.Spans)))
	}
	printMetrics(rep.Metrics)
	for _, e := range rep.Errors {
		fmt.Printf("FAILED: %s\n", e)
	}
	correct := rep.Failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{correct, max(rep.Attempted, 1), rep.Failed, result})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func printMetrics(ms map[string]Metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("metric %-40s %14.6g %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// settle collects garbage between timed operations, so that each one
// starts from the same heap state instead of paying a share of its
// predecessor's collection. Only used where one operation allocates
// tens of megabytes or more.
func settle() { runtime.GC() }

// setUp runs setup n times, tearing each environment down before the
// next, and returns the last one with the median set-up time in
// seconds. Every set-up starts after a collection.
func setUp[E any](n int, setup func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(env)
		}
		settle()
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			var zero E
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	return env, median(times), nil
}

// deadline returns when a measured phase of the given length ends.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
