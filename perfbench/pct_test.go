package main

import (
	"math"
	"testing"
)

func TestHighestTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // exactly 10 beyond p99.9
		{9999, 99, true},
		{1000, 99, true}, // exactly 10 beyond p99
		{999, 90, true},
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummariseReportsCountAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending, so summarise must sort
	}
	d := summarise(xs)
	if d.N != 1000 || d.Tail != 99 {
		t.Fatalf("N=%d Tail=%v, want 1000 and 99", d.N, d.Tail)
	}
	if d.P50 != 500.5 {
		t.Errorf("P50 = %v, want 500.5", d.P50)
	}
	if d.P99 < 990 || d.P99 > 991 {
		t.Errorf("P99 = %v, want within [990, 991]", d.P99)
	}
}

func TestQuickest(t *testing.T) {
	// Three units repeated ten times; one repetition in three is slowed
	// by noise. Each unit keeps its own quickest time.
	var reps [][]float64
	for r := 0; r < 10; r++ {
		slow := 1.0
		if r%3 == 0 {
			slow = 2
		}
		reps = append(reps, []float64{1 * slow, 2 * slow, 5 * slow})
	}
	got := quickest(reps)
	want := []float64{1, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("quickest gave %d units, want %d", len(got), len(want))
	}
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-12 {
			t.Errorf("unit %d: quickest = %v, want %v", k, got[k], want[k])
		}
	}
	// A program twice as slow in every repetition doubles every unit.
	for _, r := range reps {
		for k := range r {
			r[k] *= 2
		}
	}
	for k, g := range quickest(reps) {
		if math.Abs(g-2*want[k]) > 1e-12 {
			t.Errorf("slower program, unit %d: quickest = %v, want %v", k, g, 2*want[k])
		}
	}
	if got := quickest([][]float64{{1, 4}, {2}}); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Errorf("ragged repetitions: quickest = %v, want [1 4]", got)
	}
}
