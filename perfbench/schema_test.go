package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json keys = %v, want %v", got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	b := loadBenchmarkFile(t)
	cat, err := LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Paths, []string{"perfbench"}) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v / run_seconds %d out of range", b.Paths, b.RunSeconds)
	}
	if len(b.Command) == 0 || b.Command[0] != "bash" || b.Command[1] != "perfbench/run.sh" {
		t.Errorf("command = %v", b.Command)
	}
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	var catWl []string
	for _, w := range cat.Workloads {
		catWl = append(catWl, w.Name)
	}
	if !slices.Equal(wl, catWl) {
		t.Errorf("workloads %v, catalog has %v", wl, catWl)
	}

	seen := map[string]bool{}
	check := func(kind, name, unit, better string, list []CatMetric) {
		if !nameRe.MatchString(name) || seen[name] {
			t.Errorf("%s metric %q: bad or repeated name", kind, name)
		}
		seen[name] = true
		if !unitRe.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("%s metric %q: unit %q / better %q out of range", kind, name, unit, better)
		}
		i := slices.IndexFunc(list, func(m CatMetric) bool { return m.Name == name })
		if i < 0 {
			t.Errorf("%s metric %q is not in metrics.json", kind, name)
			return
		}
		if m := list[i]; m.Unit != unit || m.Layer == "" {
			t.Errorf("%s metric %q: catalog unit %q layer %q, BENCHMARK.json unit %q", kind, name, m.Unit, m.Layer, unit)
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		check("end_to_end", m.Name, m.Unit, m.Better, cat.EndToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) missing")
	}
	for _, m := range b.PerLayer {
		check("per_layer", m.Name, m.Unit, m.Better, cat.PerLayer)
	}
	if len(b.EndToEnd) != len(cat.EndToEnd) || len(b.PerLayer) != len(cat.PerLayer) {
		t.Error("BENCHMARK.json and metrics.json list different result-line metrics")
	}
}

// Every result-line metric must resolve, on every workload, to a metric
// the catalog lists as measured there (or to an explicit zero).
func TestCatalogSourcesAreMeasured(t *testing.T) {
	cat, err := LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]CatMetric{}
	for _, m := range cat.Measured {
		if m.Unit == "" || m.Layer == "" || len(m.Workloads) == 0 {
			t.Errorf("measured metric %q lacks a unit, layer or workload", m.Name)
		}
		if m.Layer != "end-to-end" && len(m.Moves) == 0 {
			t.Errorf("layer metric %q names no end-to-end metric it should move", m.Name)
		}
		measured[m.Name] = m
	}
	for _, m := range cat.Measured {
		for _, mv := range m.Moves {
			target, ok := measured[mv.Metric]
			if (!ok || !slices.Contains(target.Workloads, mv.Workload)) && mv.Metric != "setup_s" {
				t.Errorf("%s moves %s on %s, which is not measured there", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
	for _, list := range [][]CatMetric{cat.EndToEnd, cat.PerLayer} {
		for _, m := range list {
			for _, w := range cat.Workloads {
				src, ok := m.Source[w.Name]
				if !ok {
					continue
				}
				if mm, ok := measured[src]; !ok || !slices.Contains(mm.Workloads, w.Name) || mm.Unit != m.Unit {
					t.Errorf("%s on %s reads %q, which the catalog does not list as measured there in %s", m.Name, w.Name, src, m.Unit)
				}
			}
		}
	}
}

// The pinned Table II must agree with the table EXPERIMENTS.md quotes:
// makespan (one decimal), satisfied requests and utilization.
func TestPinnedTable2MatchesExperimentsDoc(t *testing.T) {
	raw, err := os.ReadFile("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string][]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Split(line, "|")
		if len(f) < 9 {
			continue
		}
		name := strings.TrimSpace(f[1])
		if _, ok := pinnedRows()[name]; ok {
			doc[name] = []string{strings.TrimSpace(f[3]), strings.TrimSpace(f[5]), strings.TrimSpace(f[7])}
		}
	}
	if len(doc) != 4 {
		t.Fatalf("found %d Table II rows in EXPERIMENTS.md, want 4", len(doc))
	}
	near := func(pinned, quoted string) bool {
		p, err1 := strconv.ParseFloat(pinned, 64)
		q, err2 := strconv.ParseFloat(quoted, 64)
		return err1 == nil && err2 == nil && math.Abs(p-q) <= 0.05+1e-9
	}
	for name, pin := range pinnedRows() {
		d := doc[name]
		if !near(pin[0], d[0]) || pin[1] != d[1] || !near(pin[2], d[2]) {
			t.Errorf("%s: pinned time/satisfied/util %v, EXPERIMENTS.md %v", name, []string{pin[0], pin[1], pin[2]}, d)
		}
	}
}

// pinnedRows parses the pinned Table II into config → fields.
func pinnedRows() map[string][]string {
	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(pinnedTable2), "\n")[1:] {
		f := strings.Fields(line)
		rows[f[0]] = f[1:]
	}
	return rows
}
