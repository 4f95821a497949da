package main

import (
	"math"
	"testing"
	"time"
)

func sampleOf(vals ...float64) *Sample {
	s := &Sample{}
	for _, v := range vals {
		s.AddNS(v)
	}
	return s
}

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	s := sampleOf(40, 10, 30, 20) // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.5, 25}, {1, 40}, {0.25, 17.5}, {0.9, 37},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s.N() != 4 {
		t.Errorf("N = %d, want 4", s.N())
	}
	if !math.IsNaN((&Sample{}).Quantile(0.5)) {
		t.Error("empty sample should read NaN")
	}
	if got := sampleOf(7).Quantile(0.99); got != 7 {
		t.Errorf("single-value p99 = %v, want 7", got)
	}
}

func TestAddKeepsNanoseconds(t *testing.T) {
	var s Sample
	s.Add(3 * time.Millisecond)
	if got := s.Quantile(0.5); got != 3e6 {
		t.Errorf("median = %v ns, want 3e6", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) *Sample {
		s := &Sample{}
		for i := 1; i <= n; i++ {
			s.AddNS(float64(i))
		}
		return s
	}
	cases := []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{30, 0, false}, // p75 of 30 has 8 beyond
		{40, 0.75, true},
		{100, 0.9, true}, // p90 has exactly 10 beyond, p99 only 1
		{90, 0.75, true}, // p90 of 90 has 9 beyond
		{1000, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		q, ok := seq(c.n).Tail(10)
		if ok != c.wantOK || q != c.want {
			t.Errorf("n=%d: Tail = %v,%v, want %v,%v", c.n, q, ok, c.want, c.wantOK)
		}
	}
	if b := seq(100).Beyond(0.9); b != 10 {
		t.Errorf("Beyond(0.9) of 1..100 = %d, want 10", b)
	}
	if !seq(100).TailOK(0.9, 10) || seq(100).TailOK(0.99, 10) {
		t.Error("TailOK disagrees with Beyond")
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	in := []float64{3, 1, 2}
	if m := median(in); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestSetQuantilesRecordsSampleCount(t *testing.T) {
	rep := newReport()
	s := sampleOf(1e6, 2e6, 3e6)
	rep.SetQuantiles("x", s, 1e6, "ms")
	m, ok := rep.Metrics["x_p50_ms"]
	if !ok || m.Value != 2 || m.N != 3 || m.Unit != "ms" {
		t.Errorf("x_p50_ms = %+v, %v", m, ok)
	}
	for _, name := range []string{"x_p90_ms", "x_p99_ms"} {
		if rep.Metrics[name].N != 3 {
			t.Errorf("%s lost its sample count", name)
		}
	}
}
