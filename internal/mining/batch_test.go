package mining

import (
	"testing"

	"bolt/internal/stats"
)

// batchObservations builds a batch of random sparse observations sharing the
// returned known mask (at least one entry known unless knownProb is 0).
func batchObservations(rng *stats.RNG, b, n int, knownProb float64) ([][]float64, []bool) {
	known := make([]bool, n)
	for j := range known {
		known[j] = rng.Bool(knownProb)
	}
	obs := make([][]float64, b)
	for i := range obs {
		obs[i] = make([]float64, n)
		for j := range obs[i] {
			if known[j] {
				obs[i][j] = rng.Range(0, 100)
			}
		}
	}
	return obs, known
}

// TestDetectBatchBitExact pins the recommender layer: DetectBatch returns,
// per row, exactly the Result Detect would have returned — same completed
// pressure bits, same similarity bits, same ranking.
func TestDetectBatchBitExact(t *testing.T) {
	rng := stats.NewRNG(17)
	rec := NewRecommender(synthTrain(rng), RecommenderConfig{})
	n := rec.ResourceCount()
	for _, knownProb := range []float64{0.1, 0.4} {
		obs, known := batchObservations(rng, 6, n, knownProb)
		batched := rec.DetectBatch(obs, known)
		if len(batched) != len(obs) {
			t.Fatalf("DetectBatch returned %d results for %d rows", len(batched), len(obs))
		}
		for i, got := range batched {
			want := rec.Detect(obs[i], known)
			for j := range want.Pressure {
				if got.Pressure[j] != want.Pressure[j] {
					t.Fatalf("row %d pressure[%d] = %v, solo = %v", i, j, got.Pressure[j], want.Pressure[j])
				}
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("row %d has %d matches, solo %d", i, len(got.Matches), len(want.Matches))
			}
			for m := range want.Matches {
				if got.Matches[m] != want.Matches[m] {
					t.Fatalf("row %d match %d = %+v, solo %+v", i, m, got.Matches[m], want.Matches[m])
				}
			}
		}
	}
	if out := rec.DetectBatch(nil, nil); len(out) != 0 {
		t.Fatalf("DetectBatch(nil) returned %d results", len(out))
	}
}

// TestDetectLengthPanicsNameTheCheck: DetectBatch checks every row's length
// before answering any row, so a ragged batch fails with DetectBatch's own
// message rather than inside the completion of its first bad row, after
// the rows before it were answered; DetectDense's message names the
// pressure-length check itself.
func TestDetectLengthPanicsNameTheCheck(t *testing.T) {
	rng := stats.NewRNG(18)
	rec := NewRecommender(synthTrain(rng), RecommenderConfig{})
	n := rec.ResourceCount()
	obs, known := batchObservations(rng, 3, n, 0.4)
	const ragged = "mining: DetectBatch row length != ResourceCount()"
	for name, tc := range map[string]struct {
		call func()
		want string
	}{
		"short last row": {func() { rec.DetectBatch(append(obs[:2:2], make([]float64, n-1)), known) }, ragged},
		"long first row": {func() { rec.DetectBatch(append([][]float64{make([]float64, n+1)}, obs...), known) }, ragged},
		"short mask":     {func() { rec.DetectBatch(obs, known[:n-1]) }, "mining: DetectBatch mask length != ResourceCount()"},
		"dense":          {func() { rec.DetectDense(make([]float64, n-1)) }, "mining: pressure vector length != ResourceCount()"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: panic %v, want %q", name, got, tc.want)
				}
			}()
			tc.call()
		}()
	}
}
