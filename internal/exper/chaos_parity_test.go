package exper

import (
	"bytes"
	"fmt"
	"testing"

	"bolt/internal/fault"
)

func firstDivergence(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	hiA, hiB := i+60, i+60
	if hiA > len(a) {
		hiA = len(a)
	}
	if hiB > len(b) {
		hiB = len(b)
	}
	return fmt.Sprintf("byte %d:\n  a: …%s…\n  b: …%s…", i, a[lo:hiA], b[lo:hiB])
}

// TestSuiteChaosParityAtRateZero is the chaos-parity golden: installing the
// fault plane at rate 0 must leave the entire experiment suite's stdout
// byte-identical to a run with no fault plane installed at all, at every
// parallelism level. This pins the nil-plane contract end to end — a
// disabled config builds no plane, a missing plane draws no randomness, and
// NewAdversary splits its RNG only when faults are enabled — so shipping
// the fault-injection subsystem cannot perturb a single published number.
func TestSuiteChaosParityAtRateZero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite five times")
	}
	const seed = 42

	// Baseline: no fault config at all (the state of a run without the
	// -faultrate flag). The rate-0 runs set every other fault knob, so
	// only the disabled rate keeps the plane out.
	baseline := renderStdout(t, All(), Options{Seed: seed, Parallel: 8})

	off := fault.Config{SpikeMax: 10, MaxRetries: 5, BackoffCap: 4}
	for _, parallel := range []int{1, 2, 4, 8} {
		got := renderStdout(t, All(), Options{Seed: seed, Parallel: parallel, Faults: off})
		if !bytes.Equal(got, baseline) {
			t.Fatalf("suite output with rate-0 fault plane at parallel %d diverged from no-plane baseline at %s",
				parallel, firstDivergence(got, baseline))
		}
	}
}

// TestSuiteFaultedRunIsDeterministic is the nonzero-rate companion: with
// real injection enabled the suite must still be a pure function of the
// seed, independent of parallelism.
func TestSuiteFaultedRunIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the faultrate experiment three times")
	}
	exps := byIDs(t, "table1", "faultrate")
	render := func(parallel int) []byte {
		return renderStdout(t, exps, Options{Seed: 42, Parallel: parallel, Faults: fault.Config{Rate: 0.25}})
	}
	first := render(1)
	for _, parallel := range []int{2, 4} {
		if got := render(parallel); !bytes.Equal(got, first) {
			t.Fatalf("faulted suite diverged between parallel 1 and %d at %s",
				parallel, firstDivergence(got, first))
		}
	}
}
