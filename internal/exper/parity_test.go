package exper

import (
	"bytes"
	"testing"
)

// TestSuiteParityGatedVsFixedFoldIn is the regression contract of the
// convergence-gated fold-in: running the entire experiment suite with the
// gate active must emit byte-for-byte the output of the historical
// fixed-2000-sweep solve. The gate stops the solve once a full sweep moves
// no coordinate by more than 2⁻⁴⁸ of the iterate's magnitude — orders of
// magnitude below anything the reports resolve — and the two experiments
// that are sensitive at machine precision (the DoS planners) pin
// FixedFoldIn explicitly, so the suites must agree exactly. A failure here
// means either the gate fires too early or a new experiment started
// consuming raw completed-pressure floats and needs the same pinning.
func TestSuiteParityGatedVsFixedFoldIn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	const seed = 42

	render := func(fixedFoldIn bool) []byte {
		results := Run(All(), Options{Seed: seed, FixedFoldIn: fixedFoldIn})
		reports := make([]*Report, len(results))
		for i, r := range results {
			reports[i] = r.Report
		}
		var buf bytes.Buffer
		if err := WriteAllJSON(&buf, seed, reports); err != nil {
			t.Fatalf("WriteAllJSON: %v", err)
		}
		return buf.Bytes()
	}

	gated := render(false)
	fixed := render(true)

	if !bytes.Equal(gated, fixed) {
		t.Fatalf("suite output diverged: gated (a) vs fixed (b) at %s", firstDivergence(gated, fixed))
	}
}
