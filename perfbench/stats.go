package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing distribution in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) by linear interpolation between
// closest ranks; 0 for an empty sample.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// tailPercentiles are the candidates for a tail figure, highest first.
// They stop at p95: on a small shared host p99 of a live iteration moves
// by a fifth between identical runs, wider than any useful bound.
var tailPercentiles = []float64{95, 90}

// tail returns the highest candidate percentile with at least ten samples
// beyond it, and its value. With fewer than a hundred samples no candidate
// qualifies and the maximum is reported as percentile 100.
func (s samples) tail() (pct, value float64) {
	for _, p := range tailPercentiles {
		if float64(len(s))*(1-p/100) >= 10 {
			return p, s.quantile(p / 100)
		}
	}
	return 100, s.quantile(1)
}

// ratio divides, reporting 0 when the denominator is 0 (a layer the
// workload never exercised).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// overheadPct is how much slower the recorded ops ran than the bare ones,
// in percent; 0 when either side has no sample.
func overheadPct(recorded, bare float64) float64 {
	if recorded == 0 || bare == 0 {
		return 0
	}
	return (recorded/bare - 1) * 100
}
