package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func selfOf(lts []LayerTime) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, lt := range lts {
		out[lt.Layer] = lt.Self
	}
	return out
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		{Name: "op.submit", Start: 0, End: 100, Parent: -1},
		{Name: "proto.dial", Start: 10, End: 30, Parent: 0},
		{Name: "proto.qsub_request", Start: 30, End: 70, Parent: 0},
		{Name: "serverd.qsub", Start: 40, End: 50, Parent: 2},
	}
	got := selfOf(SelfTimes(spans))
	want := map[string]time.Duration{"op": 40, "proto": 20 + 30, "serverd": 10}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("%s self = %d, want %d", l, got[l], w)
		}
	}
}

func TestSelfTimeCountsOverlapOnceAndClips(t *testing.T) {
	spans := []Span{
		{Name: "op.x", Start: 100, End: 200, Parent: -1},
		// Two concurrent children covering [110,160] together.
		{Name: "tm.a", Start: 110, End: 150, Parent: 0},
		{Name: "tm.b", Start: 120, End: 160, Parent: 0},
		// A child that outlives its parent only covers [190,200].
		{Name: "mom.c", Start: 190, End: 260, Parent: 0},
	}
	got := selfOf(SelfTimes(spans))
	if got["op"] != 100-50-10 {
		t.Errorf("op self = %d, want 40", got["op"])
	}
	if got["tm"] != 80 || got["mom"] != 70 {
		t.Errorf("children self = tm %d mom %d, want 80 and 70", got["tm"], got["mom"])
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {6, 8}}, 4},
		{0, 10, [][2]int64{{6, 8}, {2, 4}, {3, 7}}, 6},
		{0, 10, [][2]int64{{-5, 3}, {9, 20}}, 4},
		{0, 10, [][2]int64{{12, 20}}, 0},
		{0, 10, [][2]int64{{4, 4}}, 0},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d,%d,%v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestTracerDropsOpenSpansAndReparents(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Begin("op.failed", -1, 1) // never closed
	child := tr.Begin("proto.dial", root, 1)
	tr.End(child)
	ok := tr.Begin("op.ok", -1, 2)
	sub := tr.Begin("proto.dial", ok, 2)
	tr.End(sub)
	tr.End(ok)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Parent != -1 {
		t.Errorf("orphaned child parent = %d, want -1", spans[0].Parent)
	}
	if spans[2].Name != "proto.dial" || spans[2].Parent != 1 {
		t.Errorf("child of op.ok = %+v, want parent index 1", spans[2])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	i := tr.Begin("x.y", -1, 0)
	tr.End(i)
	tr.EndAt(i, time.Now())
	tr.Record("x.z", -1, 0, time.Now(), time.Now())
	if i != -1 || tr.Spans() != nil {
		t.Error("nil tracer recorded a span")
	}
}

func TestWriteJSONLAndTable(t *testing.T) {
	spans := []Span{{Name: "op.a", Start: 0, End: 2e6, Parent: -1, Op: 7}}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := WriteJSONL(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"op.a","start_ns":0,"end_ns":2000000,"parent":-1,"op":7}` + "\n"
	if string(b) != want {
		t.Errorf("jsonl = %q, want %q", b, want)
	}
	table := FormatSelfTimes(SelfTimes(spans))
	if !strings.Contains(table, "op") || !strings.Contains(table, "2.000") || !strings.Contains(table, "100.0%") {
		t.Errorf("table lacks the layer row:\n%s", table)
	}
}
