package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail figure resting on fewer is one outlier.
const tailMinBeyond = 10

// tailLadder lists the percentiles a tail figure may be taken at, highest
// first.
var tailLadder = []float64{99.9, 99, 90, 50}

// highestTail returns the highest percentile in tailLadder with at least
// tailMinBeyond of n samples beyond it, and false when even the median has
// too few.
func highestTail(n int) (float64, bool) {
	for _, q := range tailLadder {
		if float64(n)*(1-q/100) >= tailMinBeyond-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// dist summarises one set of duration samples.
type dist struct {
	N   int
	P50 float64 // in the unit the samples were converted to
	P99 float64
	// Tail is the highest percentile the sample count supports (see
	// highestTail); a metric named p99 is valid only when Tail >= 99.
	Tail float64
}

// summarise sorts xs in place and returns its median and p99.
func summarise(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	sort.Float64s(xs)
	d.P50 = quantile(xs, 0.50)
	d.P99 = quantile(xs, 0.99)
	d.Tail, _ = highestTail(len(xs))
	return d
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}

// quickest takes reps[r][k], the time of unit k of some work in repetition
// r, and returns for each unit its least time over the repetitions that
// have it.
//
// The wall time of a parallel section, a fan-out round or a barrier tick,
// ends with its slowest goroutine, so another guest on a shared host that
// takes a vCPU or contends for its caches for a moment stretches the whole
// section. Such noise comes and goes over milliseconds to minutes and never
// makes a repetition quicker: the quickest repetition of each unit shows
// what the program needs, and a slower program slows every repetition.
func quickest(reps [][]float64) []float64 {
	var out []float64
	for k := 0; ; k++ {
		best, seen := math.Inf(1), false
		for _, r := range reps {
			if k < len(r) {
				best, seen = math.Min(best, r[k]), true
			}
		}
		if !seen {
			return out
		}
		out = append(out, best)
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	return quantile(sorted(xs), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
