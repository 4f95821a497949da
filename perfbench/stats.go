package main

import (
	"math"
	"sort"
	"time"
)

// Sample is a set of timings of one operation, kept whole so that any
// percentile can be read back with its sample count.
type Sample struct {
	vals   []float64 // nanoseconds
	sorted bool
}

// Add records one duration.
func (s *Sample) Add(d time.Duration) { s.AddNS(float64(d)) }

// AddNS records one value in nanoseconds.
func (s *Sample) AddNS(ns float64) {
	s.vals = append(s.vals, ns)
	s.sorted = false
}

// N is the number of samples.
func (s *Sample) N() int { return len(s.vals) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds by
// linear interpolation between closest ranks, the rule Python's
// statistics.quantiles uses with method="inclusive". An empty sample
// reads NaN.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	pos := q * float64(len(s.vals)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s.vals)-1 {
		return s.vals[len(s.vals)-1]
	}
	frac := pos - float64(lo)
	return s.vals[lo] + frac*(s.vals[lo+1]-s.vals[lo])
}

// Beyond counts the samples strictly above the q-quantile.
func (s *Sample) Beyond(q float64) int {
	if len(s.vals) == 0 {
		return 0
	}
	v := s.Quantile(q)
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > v })
	return len(s.vals) - i
}

// tailQuantiles are the percentiles a tail may be reported at, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.75}

// Tail returns the highest of p99.9, p99, p90 and p75 that has at least
// minBeyond samples above it, and false when even p75 has fewer. A tail
// read off fewer samples than that is mostly noise.
func (s *Sample) Tail(minBeyond int) (q float64, ok bool) {
	for _, q := range tailQuantiles {
		if s.Beyond(q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// TailOK reports whether the q-quantile has at least minBeyond samples
// above it.
func (s *Sample) TailOK(q float64, minBeyond int) bool { return s.Beyond(q) >= minBeyond }

// Median of a plain value list (not necessarily durations).
func median(vals []float64) float64 {
	s := Sample{vals: append([]float64(nil), vals...)}
	return s.Quantile(0.5)
}
