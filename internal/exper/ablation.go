package exper

import (
	"fmt"

	"bolt/internal/core"
	"bolt/internal/mining"
	"bolt/internal/trace"
)

// Ablations measures the design choices DESIGN.md calls out:
//
//  1. hybrid recommender vs pure collaborative filtering (the paper's
//     argument for combining CF with content-based matching: CF alone
//     cannot label victims);
//  2. weighted vs unweighted Pearson correlation (Eq. 1's σ weights);
//  3. the 90%-energy rank-truncation rule, swept over retained energy;
//  4. shutter profiling on vs off for multi-tenant uncore-only hosts.
func Ablations(o Options) *Report {
	rep := newReport("ablation", "Design ablations")
	tb := trace.NewTable("Ablation: controlled-experiment accuracy per variant",
		"Variant", "Accuracy", "Note")

	run := func(cfg core.Config, servers, victims int) float64 {
		det := o.train(cfg)
		res := RunControlled(ControlledConfig{
			Servers:  servers,
			Victims:  victims,
			Detector: det,
		}, o)
		return res.Accuracy()
	}

	const servers, victims = 20, 54 // half scale: 8 variants below

	baseline := run(core.Config{}, servers, victims)
	tb.Add("hybrid recommender (default)", pct(baseline), "")
	rep.Metrics["baseline"] = baseline

	pureCF := run(core.Config{
		Recommender: mining.RecommenderConfig{PureCF: true},
	}, servers, victims)
	tb.Add("pure collaborative filtering", pct(pureCF), "cannot assign labels (§3.2)")
	rep.Metrics["pure_cf"] = pureCF

	unweighted := run(core.Config{
		Recommender: mining.RecommenderConfig{Unweighted: true},
	}, servers, victims)
	tb.Add("unweighted Pearson", pct(unweighted), "discards per-resource criticality")
	rep.Metrics["unweighted"] = unweighted

	for _, energy := range []float64{0.5, 0.75, 0.9, 0.99} {
		acc := run(core.Config{
			Recommender: mining.RecommenderConfig{EnergyFraction: energy},
		}, servers, victims)
		tb.Add(fmt.Sprintf("energy retention %.0f%%", energy*100), pct(acc), "")
		rep.Metrics[fmt.Sprintf("energy_%.0f", energy*100)] = acc
	}

	noShutter := run(core.Config{DisableShutter: true}, servers, victims)
	tb.Add("shutter profiling disabled", pct(noShutter), "multi-tenant uncore-only hosts suffer")
	rep.Metrics["no_shutter"] = noShutter

	noMRC := run(core.Config{DisableMRC: true}, servers, victims)
	tb.Add("miss-ratio-curve probe disabled", pct(noMRC), "constant-load mixtures lose one equation (§3.3 extension)")
	rep.Metrics["no_mrc"] = noMRC

	rep.Tables = append(rep.Tables, tb)
	rep.Notes = append(rep.Notes,
		"expected: pure CF collapses label accuracy; σ-weighting and shutter mode each help; energy retention has a broad optimum near 90%")
	return rep
}
