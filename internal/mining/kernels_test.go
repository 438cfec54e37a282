package mining

import (
	"math"
	"testing"

	"bolt/internal/stats"
)

// The kernels' contract is stronger than numerical closeness: they must
// reproduce the scalar loops they replaced bit for bit, because the
// experiment suite's regression baseline is byte-identical output. Every
// comparison below is == on float64, not an epsilon.

func randVec(rng *stats.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Range(-5, 5)
	}
	return v
}

func TestDotMatchesNaiveBitExact(t *testing.T) {
	rng := stats.NewRNG(11)
	for n := 0; n <= 33; n++ {
		a, b := randVec(rng, n), randVec(rng, n)
		want := 0.0
		for i := range a {
			want += a[i] * b[i]
		}
		if got := Dot(a, b); got != want {
			t.Fatalf("n=%d: Dot=%v, naive=%v (diff %g)", n, got, want, got-want)
		}
	}
}

func TestAxpyMatchesNaiveBitExact(t *testing.T) {
	rng := stats.NewRNG(12)
	for n := 0; n <= 33; n++ {
		x, y := randVec(rng, n), randVec(rng, n)
		want := append([]float64(nil), y...)
		for i := range want {
			want[i] += 1.75 * x[i]
		}
		Axpy(1.75, x, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d i=%d: Axpy=%v, naive=%v", n, i, y[i], want[i])
			}
		}
	}
}

func TestSgdStepMatchesReferenceBitExact(t *testing.T) {
	rng := stats.NewRNG(13)
	const lr, err, reg = 0.01, 1.375, 0.02
	for n := 0; n <= 9; n++ {
		p, q := randVec(rng, n), randVec(rng, n)
		wp := append([]float64(nil), p...)
		wq := append([]float64(nil), q...)
		for k := range wp {
			pk, qk := wp[k], wq[k]
			wp[k] += lr * (err*qk - reg*pk)
			wq[k] += lr * (err*pk - reg*qk)
		}
		sgdStep(p, q, lr, err, reg)
		for k := range p {
			if p[k] != wp[k] || q[k] != wq[k] {
				t.Fatalf("n=%d k=%d: (%v,%v), want (%v,%v)", n, k, p[k], q[k], wp[k], wq[k])
			}
		}
	}
}

func TestFoldStepMatchesReferenceBitExact(t *testing.T) {
	rng := stats.NewRNG(14)
	const lr, err, reg = 0.01, -0.625, 0.002
	for n := 0; n <= 9; n++ {
		u, q := randVec(rng, n), randVec(rng, n)
		want := append([]float64(nil), u...)
		for k := range want {
			want[k] += lr * (err*q[k] - reg*want[k])
		}
		foldStep(u, q, lr, err, reg)
		for k := range u {
			if u[k] != want[k] {
				t.Fatalf("n=%d k=%d: foldStep=%v, want %v", n, k, u[k], want[k])
			}
		}
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	cases := map[string]func(){
		"Dot":      func() { Dot(make([]float64, 3), make([]float64, 4)) },
		"Axpy":     func() { Axpy(1, make([]float64, 3), make([]float64, 4)) },
		"sgdStep":  func() { sgdStep(make([]float64, 3), make([]float64, 4), 0.01, 1, 0.02) },
		"foldStep": func() { foldStep(make([]float64, 4), make([]float64, 3), 0.01, 1, 0.02) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s length mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDotSpecialValuesPropagate(t *testing.T) {
	// NaN/Inf handling must match the naive loop too: the kernels are drop-in
	// replacements, not sanitisers.
	a := []float64{1, math.Inf(1), 3, 4, 5}
	b := []float64{1, 0, 3, 4, 5}
	if got := Dot(a, b); !math.IsNaN(got) {
		t.Fatalf("Inf*0 should poison the sum with NaN, got %v", got)
	}
}

// referenceFoldIn is CompleteInto's generic fold-in solve for rank r —
// Dot and foldStep per known column, with the convergence gate unless
// fixed — returning the factor row and the number of sweeps it ran.
func referenceFoldIn(qdata []float64, r int, kidx []int, observed []float64, lr, reg float64, fixed bool) ([]float64, int) {
	u, prev := make([]float64, r), make([]float64, r)
	for it := 0; it < foldInIters; it++ {
		copy(prev, u)
		for _, j := range kidx {
			qj := qdata[j*r : (j+1)*r]
			foldStep(u, qj, lr, observed[j]-Dot(u, qj), reg)
		}
		if fixed {
			continue
		}
		maxDelta, maxU := 0.0, 0.0
		for k := range u {
			if d := math.Abs(u[k] - prev[k]); d > maxDelta {
				maxDelta = d
			}
			if a := math.Abs(u[k]); a > maxU {
				maxU = a
			}
		}
		if maxDelta <= foldInTol*maxU {
			return u, it + 1
		}
	}
	return u, foldInIters
}

// TestFoldSolve6MatchesGenericBitExact pins the register-resident rank-6
// solve to the generic scalar-kernel solve, gated and fixed, for masks from
// one known column to all of them.
func TestFoldSolve6MatchesGenericBitExact(t *testing.T) {
	rng := stats.NewRNG(15)
	const n, lr, reg = 10, 0.01, 0.002
	qdata := randVec(rng, n*6)
	for trial := 0; trial < 40; trial++ {
		var kidx []int
		for j := 0; j < n; j++ {
			if rng.Bool(0.4) || j == trial%n {
				kidx = append(kidx, j)
			}
		}
		observed := make([]float64, n)
		for j := range observed {
			observed[j] = rng.Range(0, 100)
		}
		for _, fixed := range []bool{false, true} {
			want, _ := referenceFoldIn(qdata, 6, kidx, observed, lr, reg, fixed)
			got := make([]float64, 6)
			foldSolve6(got, qdata, kidx, observed, lr, reg, fixed)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("trial %d fixed=%v: u[%d] = %v, generic %v", trial, fixed, k, got[k], want[k])
				}
			}
		}
	}
}
