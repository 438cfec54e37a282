package mining

import (
	"fmt"
	"math"
	"testing"

	"bolt/internal/stats"
)

// The ranking reference: the per-profile detection the recommender ran
// before its split into a per-mask prep (rankPrep) and a per-row scan
// (rankScan) — WeightedPearson × proximity for every training profile,
// then a stable binary insertion sort of the Match structs. The production
// path must reproduce it bit for bit: the experiment suite's regression
// baseline is byte-identical output.

// referenceProximity is exp(−wrms/proximityScale) for the weighted RMS
// distance between two profiles; weights nil means uniform.
func referenceProximity(a, b, weights []float64) float64 {
	num, den := 0.0, 0.0
	for j := range a {
		w := 1.0
		if weights != nil {
			w = weights[j]
		}
		d := a[j] - b[j]
		num += w * d * d
		den += w
	}
	if den == 0 {
		return 1
	}
	return math.Exp(-math.Sqrt(num/den) / proximityScale)
}

// referenceSortMatches orders matches by decreasing similarity, stably, by
// binary insertion.
func referenceSortMatches(m []Match) {
	for i := 1; i < len(m); i++ {
		x := m[i]
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if m[mid].Similarity >= x.Similarity {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(m[lo+1:i+1], m[lo:i])
		m[lo] = x
	}
}

// referenceRank ranks an already completed pressure vector; known (nil for
// DetectDense) marks the measured entries.
func referenceRank(r *Recommender, pressure []float64, known []bool) *Result {
	res := &Result{
		Pressure: append([]float64(nil), pressure...),
		Matches:  make([]Match, len(r.profiles)),
	}
	weights := r.weights
	if known != nil {
		weights = append([]float64(nil), r.weights...)
		for j, k := range known {
			if k {
				weights[j] *= measuredBoost
			}
		}
	}
	centred := make([]float64, r.n)
	for j := range centred {
		centred[j] = pressure[j] - r.means[j]
	}
	u := make([]float64, len(r.svd.Sigma))
	r.svd.ProjectInto(u, append([]float64(nil), centred...))
	for i, p := range r.profiles {
		prof := r.centred[i*r.n : (i+1)*r.n]
		var sim float64
		switch {
		case r.cfg.PureCF:
			sim = CosineSimilarity(u, r.concepts[i])
		case r.cfg.Unweighted:
			sim = WeightedPearson(centred, prof, r.ones) * referenceProximity(pressure, p.Pressure, nil)
		default:
			sim = WeightedPearson(centred, prof, weights) * referenceProximity(pressure, p.Pressure, weights)
		}
		res.Matches[i] = Match{Label: p.Label, Class: p.Class, Similarity: sim}
	}
	referenceSortMatches(res.Matches)
	if r.cfg.PureCF {
		for i := range res.Matches {
			res.Matches[i].Label = ""
		}
	}
	return res
}

// referenceDetect is Detect by the reference ranking: the solo completion,
// then referenceRank.
func referenceDetect(r *Recommender, observed []float64, known []bool) *Result {
	dense := make([]float64, r.n)
	r.complete.CompleteInto(dense, observed, known)
	return referenceRank(r, dense, known)
}

// sameResult reports the first difference between two Results: a Pressure
// bit, a Match field (Similarity compared bit for bit) or the order.
func sameResult(got, want *Result) error {
	if len(got.Pressure) != len(want.Pressure) || len(got.Matches) != len(want.Matches) {
		return fmt.Errorf("shape %d/%d, want %d/%d", len(got.Pressure), len(got.Matches), len(want.Pressure), len(want.Matches))
	}
	for j := range want.Pressure {
		if math.Float64bits(got.Pressure[j]) != math.Float64bits(want.Pressure[j]) {
			return fmt.Errorf("pressure[%d] = %v, want %v", j, got.Pressure[j], want.Pressure[j])
		}
	}
	for m, w := range want.Matches {
		g := got.Matches[m]
		if g.Label != w.Label || g.Class != w.Class || math.Float64bits(g.Similarity) != math.Float64bits(w.Similarity) {
			return fmt.Errorf("match %d = %+v, want %+v", m, g, w)
		}
	}
	return nil
}

// tieTrain builds a training set with exact ties and a zero-variance
// profile: integer profiles in mirrored pairs x, 100−x plus constant-50
// rows make every column mean exactly 50, so a constant-50 row centres to
// all zeros; two pairs and the constant row appear twice, so their
// similarities tie exactly.
func tieTrain(rng *stats.RNG, pairs int) []LabeledProfile {
	var out []LabeledProfile
	add := func(class string, i int, p []float64) {
		out = append(out, LabeledProfile{Label: fmt.Sprintf("%s:%d", class, i), Class: class, Pressure: p})
	}
	constant := make([]float64, 10)
	for j := range constant {
		constant[j] = 50
	}
	for i := 0; i < pairs; i++ {
		x, y := make([]float64, 10), make([]float64, 10)
		for j := range x {
			x[j] = float64(rng.Intn(101))
			y[j] = 100 - x[j]
		}
		class := fmt.Sprintf("c%d", i%4)
		add(class, 2*i, x)
		add(class, 2*i+1, y)
		if i < 2 {
			add(class, 2*i, x)
			add(class, 2*i+1, y)
		}
	}
	add("flat", 0, constant)
	add("flat", 1, constant)
	return out
}

// TestDetectMatchesReference pins Detect, DetectDense and DetectBatch to
// the reference ranking bit for bit — Pressure, every Match field and the
// order — for the default, Unweighted and PureCF configs, on training sets
// with exact ties and a zero-variance profile, with empty, partial and
// full masks, and for batches of 1 to 64 rows whose fold-ins stop at
// different sweeps.
func TestDetectMatchesReference(t *testing.T) {
	rng := stats.NewRNG(57)
	sets := map[string][]LabeledProfile{
		"synth": synthTrain(rng),
		"ties":  tieTrain(rng, 60),
	}
	configs := map[string]RecommenderConfig{
		"default":    {},
		"unweighted": {Unweighted: true},
		"purecf":     {PureCF: true},
	}
	for setName, set := range sets {
		for cfgName, cfg := range configs {
			rec := NewRecommender(set, cfg)
			n := rec.ResourceCount()
			check := func(what string, got, want *Result) {
				t.Helper()
				if err := sameResult(got, want); err != nil {
					t.Fatalf("%s/%s %s: %v", setName, cfgName, what, err)
				}
			}

			// Dense queries: every training profile (exact self-matches and
			// the ties among duplicates), the all-50 query (zero variance
			// after centring on the ties set) and random vectors.
			dense := [][]float64{make([]float64, n)}
			for j := range dense[0] {
				dense[0][j] = 50
			}
			for _, p := range set {
				dense = append(dense, p.Pressure)
			}
			for i := 0; i < 8; i++ {
				dense = append(dense, randPressure(rng, n))
			}
			for i, p := range dense {
				check(fmt.Sprintf("DetectDense #%d", i), rec.DetectDense(p), referenceRank(rec, p, nil))
			}

			for _, knownProb := range []float64{0, 0.2, 0.5, 1} {
				for _, rows := range []int{1, 2, 7, 33, 64} {
					obs, known := batchObservations(rng, rows, n, knownProb)
					batched := rec.DetectBatch(obs, known)
					for b := range obs {
						want := referenceDetect(rec, obs[b], known)
						check(fmt.Sprintf("p=%v DetectBatch(%d) row %d", knownProb, rows, b), batched[b], want)
						check(fmt.Sprintf("p=%v Detect row %d", knownProb, b), rec.Detect(obs[b], known), want)
					}
					if rows == 64 && knownProb == 1 {
						requireDistinctSweeps(t, rec.complete, obs, known)
					}
				}
			}
		}
	}
}

func randPressure(rng *stats.RNG, n int) []float64 {
	p := make([]float64, n)
	for j := range p {
		p[j] = rng.Range(0, 100)
	}
	return p
}

// requireDistinctSweeps fails unless the rows' gated fold-ins stop at
// different sweeps, so the batch cases above cover rows that converge at
// different points rather than in lockstep.
func requireDistinctSweeps(t *testing.T, c *Completer, obs [][]float64, known []bool) {
	t.Helper()
	var kidx []int
	for j, k := range known {
		if k {
			kidx = append(kidx, j)
		}
	}
	seen := map[int]bool{}
	for _, o := range obs {
		_, sweeps := referenceFoldIn(c.q.Data, c.cfg.Rank, kidx, o, 0.01, c.cfg.Reg*0.1, false)
		seen[sweeps] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all %d rows stopped at the same sweep; the batch does not exercise per-row convergence", len(obs))
	}
}

// TestSortKeysMatchesReference: sortKeys orders keys exactly as the
// reference binary insertion sort orders the equivalent Matches, across
// lengths around every run and merge boundary and with heavy ties
// (including +0 and −0, which compare equal).
func TestSortKeysMatchesReference(t *testing.T) {
	rng := stats.NewRNG(58)
	values := []float64{-1, -0.5, math.Copysign(0, -1), 0, 0.25, 1}
	sizes := []int{96, 120, 127, 128, 129, 255, 256, 257, 300}
	for n := 70; n >= 0; n-- {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for trial := 0; trial < 4; trial++ {
			keys := make([]rankKey, n)
			ms := make([]Match, n)
			for i := range keys {
				sim := rng.Range(-1, 1)
				if trial%2 == 0 {
					sim = values[rng.Intn(len(values))]
				}
				keys[i] = rankKey{sim, i}
				ms[i] = Match{Label: fmt.Sprint(i), Similarity: sim}
			}
			sorted := sortKeys(keys, make([]rankKey, n))
			referenceSortMatches(ms)
			for k := range ms {
				if fmt.Sprint(sorted[k].idx) != ms[k].Label ||
					math.Float64bits(sorted[k].sim) != math.Float64bits(ms[k].Similarity) {
					t.Fatalf("n=%d trial %d: position %d = %+v, reference %+v", n, trial, k, sorted[k], ms[k])
				}
			}
		}
	}
}
