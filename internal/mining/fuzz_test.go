package mining

import (
	"math"
	"sync"
	"testing"

	"bolt/internal/stats"
)

// fuzzCompleter is built once per process: a small deterministic training
// matrix over 6 columns with pressure-scale values, clamped like real
// profiles to [0, 100].
var fuzzCompleterOnce = struct {
	sync.Once
	c *Completer
}{}

const fuzzCols = 6

func fuzzCompleter() *Completer {
	fuzzCompleterOnce.Do(func() {
		rng := stats.NewRNG(1701)
		rows := 12
		m := NewMatrix(rows, fuzzCols)
		for i := range m.Data {
			m.Data[i] = rng.Range(0, 100)
		}
		fuzzCompleterOnce.c = NewCompleter(m, CompletionConfig{Seed: 7})
	})
	return fuzzCompleterOnce.c
}

// boundTol absorbs the last-bit rounding a convex combination of in-range
// values can pick up; completion output must stay within
// [pressureMin, pressureMax] up to this slack.
const boundTol = 1e-9

// FuzzCompleterBounded feeds arbitrary observation vectors and known-masks
// through the matrix completer and asserts the recommender's input
// contract: every completed entry is finite and within the pressure
// range, known entries pass through unchanged, and the all-missing row
// (the fully degraded fault-plane case) still completes in range.
func FuzzCompleterBounded(f *testing.F) {
	f.Add(50.0, 60.0, 70.0, 10.0, 20.0, 30.0, uint8(0b111111))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0)) // all missing
	f.Add(100.0, 100.0, 100.0, 100.0, 100.0, 100.0, uint8(0b000001))
	f.Add(99.9, 0.1, 55.5, 3.25, 80.0, 42.0, uint8(0b101010))
	f.Fuzz(func(t *testing.T, v0, v1, v2, v3, v4, v5 float64, mask uint8) {
		raw := [fuzzCols]float64{v0, v1, v2, v3, v4, v5}
		observed := make([]float64, fuzzCols)
		known := make([]bool, fuzzCols)
		for j, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite observation")
			}
			// Upstream pressures are clamped before they reach the
			// completer; mirror that contract so the fuzzer explores the
			// mask/value space, not the out-of-domain input space.
			observed[j] = clamp(v, pressureMin, pressureMax)
			known[j] = mask&(1<<j) != 0
		}
		out := fuzzCompleter().Complete(observed, known)
		if len(out) != fuzzCols {
			t.Fatalf("Complete returned %d entries, want %d", len(out), fuzzCols)
		}
		for j, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("out[%d] = %g not finite (observed=%v known=%v)", j, v, observed, known)
			}
			if v < pressureMin-boundTol || v > pressureMax+boundTol {
				t.Fatalf("out[%d] = %g outside [%g, %g] (observed=%v known=%v)", j, v, pressureMin, pressureMax, observed, known)
			}
			if known[j] && v != observed[j] {
				t.Fatalf("known entry %d rewritten: %g -> %g", j, observed[j], v)
			}
		}
	})
}

// pearsonMagCap keeps fuzzed inputs far from float64 overflow: the
// covariance terms are triple products, so magnitudes must stay below
// ~cbrt(MaxFloat64) for intermediate arithmetic to remain finite. 1e90
// leaves the entire plausible numeric space open to the fuzzer.
const pearsonMagCap = 1e90

// FuzzPearsonSymmetry asserts the similarity kernel's algebraic contract
// under arbitrary finite inputs: WeightedPearson is symmetric in its two
// profiles, always lands in [-1, 1], and never returns NaN — the guards
// the detection pipeline relies on when faulted profiles reach it.
func FuzzPearsonSymmetry(f *testing.F) {
	f.Add(10.0, 20.0, 30.0, 40.0, 40.0, 30.0, 20.0, 10.0, 1.0, 2.0, 3.0, 4.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)   // zero variance
	f.Add(5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0)   // zero weights
	f.Add(1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0, -1.0, 1.0, -1.0, 1.0) // mixed-sign weights
	f.Fuzz(func(t *testing.T,
		a0, a1, a2, a3, b0, b1, b2, b3, s0, s1, s2, s3 float64) {
		a := []float64{a0, a1, a2, a3}
		b := []float64{b0, b1, b2, b3}
		sigma := []float64{s0, s1, s2, s3}
		for _, xs := range [][]float64{a, b, sigma} {
			for _, x := range xs {
				if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > pearsonMagCap {
					t.Skip("out of numeric domain")
				}
			}
		}
		r1 := WeightedPearson(a, b, sigma)
		r2 := WeightedPearson(b, a, sigma)
		if math.IsNaN(r1) || r1 < -1 || r1 > 1 {
			t.Fatalf("WeightedPearson(a, b) = %g outside [-1, 1]", r1)
		}
		// The two orders round the same covariance sum through different
		// multiplication groupings, so demand agreement to far below any
		// decision threshold rather than bit equality.
		if math.Abs(r1-r2) > 1e-9 {
			t.Fatalf("asymmetric: WeightedPearson(a,b)=%g, WeightedPearson(b,a)=%g\na=%v b=%v sigma=%v",
				r1, r2, a, b, sigma)
		}
		// The unweighted form must agree with the all-ones weighting and be
		// symmetric for the same reason.
		p1, p2 := Pearson(a, b), Pearson(b, a)
		if math.IsNaN(p1) || p1 < -1 || p1 > 1 || math.Abs(p1-p2) > 1e-9 {
			t.Fatalf("Pearson asymmetric or out of range: %g vs %g", p1, p2)
		}
	})
}
