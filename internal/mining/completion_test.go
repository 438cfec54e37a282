package mining

import (
	"testing"
	"testing/quick"

	"bolt/internal/stats"
)

func trainMatrix(seed uint64, rows, cols int) *Matrix {
	rng := stats.NewRNG(seed)
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Range(0, 100)
	}
	return m
}

func TestCompleterDeterministic(t *testing.T) {
	train := trainMatrix(1, 30, 10)
	a := NewCompleter(train, CompletionConfig{Seed: 5})
	b := NewCompleter(train, CompletionConfig{Seed: 5})
	obs := make([]float64, 10)
	known := make([]bool, 10)
	obs[2], known[2] = 40, true
	obs[7], known[7] = 60, true
	da, db := a.Complete(obs, known), b.Complete(obs, known)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, da[i], db[i])
		}
	}
}

func TestCompleterPredictionsBoundedProperty(t *testing.T) {
	train := trainMatrix(2, 40, 10)
	c := NewCompleter(train, CompletionConfig{Seed: 1})
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		obs := make([]float64, 10)
		known := make([]bool, 10)
		for i := range obs {
			if rng.Bool(0.4) {
				obs[i] = rng.Range(0, 100)
				known[i] = true
			}
		}
		dense := c.Complete(obs, known)
		for i, v := range dense {
			if known[i] && v != obs[i] {
				return false // known entries must pass through untouched
			}
			if v < 0 || v > 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCompleterNoObservations(t *testing.T) {
	train := trainMatrix(3, 20, 10)
	c := NewCompleter(train, CompletionConfig{Seed: 1})
	dense := c.Complete(make([]float64, 10), make([]bool, 10))
	// With nothing known the neighbourhood falls back to column means,
	// blended with the (zero-factor) latent prediction: finite, in-range,
	// and non-degenerate.
	for j, v := range dense {
		if v < 0 || v > 100 {
			t.Fatalf("column %d out of range: %v", j, v)
		}
	}
	nonzero := 0
	for _, v := range dense {
		if v > 1 {
			nonzero++
		}
	}
	if nonzero < 5 {
		t.Fatal("observation-free completion should reflect the training means")
	}
}

func TestCompleterLengthMismatchPanics(t *testing.T) {
	train := trainMatrix(4, 10, 10)
	c := NewCompleter(train, CompletionConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	c.Complete(make([]float64, 3), make([]bool, 3))
}

func TestNeighbourEstimatePrefersCloseRows(t *testing.T) {
	// Two well-separated clusters; an observation near cluster A must be
	// completed with cluster A's values on the unobserved columns.
	rows := [][]float64{}
	for i := 0; i < 10; i++ {
		rows = append(rows, []float64{80, 80, 80, 10, 10, 10, 10, 10, 10, 10}) // cluster A
		rows = append(rows, []float64{10, 10, 10, 80, 80, 80, 80, 80, 80, 80}) // cluster B
	}
	c := NewCompleter(FromRows(rows), CompletionConfig{Seed: 2})
	obs := make([]float64, 10)
	known := make([]bool, 10)
	obs[0], known[0] = 79, true
	obs[1], known[1] = 81, true
	dense := c.Complete(obs, known)
	if dense[2] < 60 {
		t.Fatalf("column 2 should follow cluster A (≈80), got %v", dense[2])
	}
	if dense[5] > 40 {
		t.Fatalf("column 5 should follow cluster A (≈10), got %v", dense[5])
	}
}

func TestRecommenderDetectDeterministic(t *testing.T) {
	rng := stats.NewRNG(6)
	profiles := synthTrain(rng)
	a := NewRecommender(profiles, RecommenderConfig{})
	b := NewRecommender(profiles, RecommenderConfig{})
	obs := []float64{80, 55, 30, 70, 40, 50, 35, 55, 2, 1}
	known := []bool{true, false, false, true, false, true, false, false, false, false}
	ra, rb := a.Detect(obs, known), b.Detect(obs, known)
	if ra.Best().Label != rb.Best().Label || ra.Best().Similarity != rb.Best().Similarity {
		t.Fatal("identical recommenders disagreed")
	}
}

func TestDetectDoesNotMutateInputs(t *testing.T) {
	rng := stats.NewRNG(7)
	rec := NewRecommender(synthTrain(rng), RecommenderConfig{})
	obs := []float64{80, 55, 30, 70, 40, 50, 35, 55, 2, 1}
	known := []bool{true, false, false, true, false, true, false, false, false, false}
	obsCopy := append([]float64(nil), obs...)
	rec.Detect(obs, known)
	for i := range obs {
		if obs[i] != obsCopy[i] {
			t.Fatal("Detect mutated its observation slice")
		}
	}
}

func TestConceptResourceLoadingShape(t *testing.T) {
	rng := stats.NewRNG(8)
	rec := NewRecommender(synthTrain(rng), RecommenderConfig{})
	m := rec.ConceptResourceLoading()
	if m.Rows != 10 || m.Cols != rec.Rank() {
		t.Fatalf("loading matrix %dx%d, want 10x%d", m.Rows, m.Cols, rec.Rank())
	}
	for _, v := range m.Data {
		if v < 0 {
			t.Fatal("loadings must be absolute values")
		}
	}
}

func TestSigmaDecreasing(t *testing.T) {
	rng := stats.NewRNG(9)
	rec := NewRecommender(synthTrain(rng), RecommenderConfig{})
	sigma := rec.Sigma()
	for i := 1; i < len(sigma); i++ {
		if sigma[i] > sigma[i-1] {
			t.Fatalf("singular values not decreasing: %v", sigma)
		}
	}
	// Sigma must be a copy: mutating it must not affect the recommender.
	sigma[0] = -1
	if rec.Sigma()[0] == -1 {
		t.Fatal("Sigma returned a live reference")
	}
}
