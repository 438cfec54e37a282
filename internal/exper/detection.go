package exper

import (
	"fmt"
	"sort"

	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/par"
	"bolt/internal/sim"
	"bolt/internal/trace"
)

// table1Classes are the application classes the paper reports individually.
var table1Classes = []string{"memcached", "hadoop", "spark", "cassandra", "speccpu"}

// Table1 reproduces Table 1: detection accuracy per application class in
// the controlled experiment, under the least-loaded and Quasar schedulers.
func Table1(o Options) *Report {
	rep := newReport("table1", "Detection accuracy: least-loaded vs Quasar")

	// Train once, then run the two scheduler variants on the episode pool
	// (each derives all randomness from the shared seed independently).
	det := o.train(core.Config{})
	schedulers := []cluster.Scheduler{cluster.LeastLoaded{}, cluster.Quasar{}}
	results := make([]*ControlledResult, len(schedulers))
	par.FanOut(len(schedulers), o.EpisodeWorkers, nil, func(i int) {
		results[i] = RunControlled(ControlledConfig{Scheduler: schedulers[i], Detector: det}, o)
	})
	ll, qu := results[0], results[1]

	tb := trace.NewTable("Table 1: Bolt's detection accuracy (controlled experiment)",
		"Applications", "Least Load scheduler", "Quasar scheduler")
	tb.Add("Aggregate", pct(ll.Accuracy()), pct(qu.Accuracy()))
	llClass, quClass := ll.ClassAccuracy(), qu.ClassAccuracy()
	for _, c := range table1Classes {
		tb.Add(c, pct(llClass[c]), pct(quClass[c]))
	}
	rep.Tables = append(rep.Tables, tb)

	rep.Metrics["aggregate_accuracy_ll"] = ll.Accuracy()
	rep.Metrics["aggregate_accuracy_quasar"] = qu.Accuracy()
	for _, c := range table1Classes {
		rep.Metrics["class_"+c+"_ll"] = llClass[c]
	}
	rep.Metrics["victims_ll"] = float64(len(ll.Records))
	rep.Notes = append(rep.Notes,
		"paper: aggregate 87% (LL) / 89% (Quasar); per-class 78-92%")
	return rep
}

// Figure6 reproduces Fig. 6: detection accuracy as a function of the
// number of co-residents per host (left) and of the victim's dominant
// resource (right).
func Figure6(o Options) *Report {
	rep := newReport("fig6", "Accuracy vs co-residents and dominant resource")
	res := RunControlled(ControlledConfig{}, o)

	// Left panel: accuracy vs number of victims on the host.
	var xs, ys []float64
	for n := 1; n <= 5; n++ {
		acc := res.AccuracyWhere(func(r VictimRecord) bool { return r.CoResidents == n })
		count := 0
		for _, r := range res.Records {
			if r.CoResidents == n {
				count++
			}
		}
		if count == 0 {
			continue
		}
		xs = append(xs, float64(n))
		ys = append(ys, acc)
		rep.Metrics[fmt.Sprintf("accuracy_%d_coresidents", n)] = acc
	}
	fig := trace.NewFigure("Fig 6a: accuracy vs number of co-scheduled applications",
		"co-residents per host", "accuracy (%)")
	fig.AddSeries("accuracy", xs, ys)
	rep.Figures = append(rep.Figures, fig)

	// Right panel: accuracy vs the victim's dominant resource.
	tb := trace.NewTable("Fig 6b: accuracy vs dominant resource",
		"Dominant resource", "Victims", "Accuracy")
	for _, r := range sim.AllResources() {
		count := 0
		for _, rec := range res.Records {
			if rec.Dominant == r {
				count++
			}
		}
		if count == 0 {
			continue
		}
		acc := res.AccuracyWhere(func(rec VictimRecord) bool { return rec.Dominant == r })
		tb.Add(r.String(), fmt.Sprintf("%d", count), pct(acc))
		rep.Metrics["dominant_"+r.String()] = acc
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Notes = append(rep.Notes,
		"paper: >95% for ≤2 co-residents dropping to 67% at 5; local dip at 3 co-residents")
	return rep
}

// Figure7 reproduces Fig. 7: the PDF of iterations needed until correct
// detection, overall and split by the number of co-residents.
func Figure7(o Options) *Report {
	rep := newReport("fig7", "Iterations until detection")
	res := RunControlled(ControlledConfig{}, o)

	maxIter := 6
	total := make([]int, maxIter+1)
	byCo := map[int][]int{}
	for _, r := range res.Records {
		if !r.Correct() {
			continue
		}
		total[r.CorrectIteration]++
		if byCo[r.CoResidents] == nil {
			byCo[r.CoResidents] = make([]int, maxIter+1)
		}
		byCo[r.CoResidents][r.CorrectIteration]++
	}
	correct := 0
	for _, c := range total {
		correct += c
	}

	var xs, ys []float64
	for it := 1; it <= maxIter; it++ {
		xs = append(xs, float64(it))
		share := 0.0
		if correct > 0 {
			share = 100 * float64(total[it]) / float64(correct)
		}
		ys = append(ys, share)
		rep.Metrics[fmt.Sprintf("pdf_iter_%d", it)] = share
	}
	fig := trace.NewFigure("Fig 7a: PDF of iterations until detection",
		"iterations", "share of detected victims (%)")
	fig.AddSeries("all victims", xs, ys)
	rep.Figures = append(rep.Figures, fig)

	fig2 := trace.NewFigure("Fig 7b: iterations until detection by co-resident count",
		"iterations", "share of detected victims (%)")
	coCounts := make([]int, 0, len(byCo))
	for n := range byCo {
		coCounts = append(coCounts, n)
	}
	sort.Ints(coCounts)
	for _, n := range coCounts {
		counts := byCo[n]
		sub := 0
		for _, c := range counts {
			sub += c
		}
		var sy []float64
		for it := 1; it <= maxIter; it++ {
			sy = append(sy, 100*float64(counts[it])/float64(sub))
		}
		fig2.AddSeries(fmt.Sprintf("%d apps", n), xs, sy)
	}
	rep.Figures = append(rep.Figures, fig2)
	rep.Notes = append(rep.Notes,
		"paper: 71% of victims detected in one iteration, +15% in the second")
	return rep
}

// Figure9 reproduces Fig. 9: detection accuracy as a function of the
// pressure the victim places on each of six representative resources.
func Figure9(o Options) *Report {
	rep := newReport("fig9", "Accuracy vs victim resource pressure")
	res := RunControlled(ControlledConfig{}, o)

	resources := []sim.Resource{sim.L1I, sim.LLC, sim.CPU, sim.MemCap, sim.NetBW, sim.DiskBW}
	const binW = 20.0
	fig := trace.NewFigure("Fig 9: accuracy vs victim pressure per resource",
		"victim pressure bin centre (%)", "accuracy (%)")
	for _, r := range resources {
		var xs, ys []float64
		for lo := 0.0; lo < 100; lo += binW {
			hi := lo + binW
			keep := func(rec VictimRecord) bool {
				p := rec.Spec.Base.Get(r)
				return p >= lo && p < hi
			}
			n := 0
			for _, rec := range res.Records {
				if keep(rec) {
					n++
				}
			}
			if n < 2 {
				continue
			}
			xs = append(xs, lo+binW/2)
			ys = append(ys, res.AccuracyWhere(keep))
		}
		fig.AddSeries(r.String(), xs, ys)
		if len(ys) > 0 {
			rep.Metrics["mean_accuracy_"+r.String()] = mean(ys)
		}
	}
	rep.Figures = append(rep.Figures, fig)
	rep.Notes = append(rep.Notes,
		"paper: very low or very high pressure carries the most detection value")
	return rep
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", v) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
