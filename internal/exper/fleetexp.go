package exper

import (
	"fmt"

	"bolt/internal/attack"
	"bolt/internal/cluster"
	"bolt/internal/stats"
	"bolt/internal/trace"
)

// fleetSizes returns the fleet-size ladder the fleet-scale experiments
// sweep, or just o.FleetServers when that is set.
func fleetSizes(o Options) []int {
	if o.FleetServers > 0 {
		return []int{o.FleetServers}
	}
	return []int{64, 256}
}

// FleetExp sweeps scheduler-guided co-location attacks across fleet size ×
// scheduler policy × launch strategy, on the sharded fleet-tick engine.
//
// The campaign mechanics (Repttack-style launch strategies, affinity
// steering, uncore probe scoring) live in internal/attack; this experiment
// runs the undefended baseline — attack.Hooks zero value — against the
// schedulers of the placement-vulnerability literature. The defencesweep
// experiment runs the same campaigns against the secure placement
// policies.
func FleetExp(o Options) *Report {
	rep := newReport("fleet", "Fleet-scale scheduler-guided co-location (launch-strategy sweep)")
	rng := stats.NewRNG(o.Seed ^ 0xf1ee7)

	tb := trace.NewTable("Launch-strategy sweep: fleet size × scheduler × launch strategy",
		"Servers", "VMs", "Scheduler", "Strategy", "Co-res P", "Candidates", "Precision", "Probe ticks")

	for _, size := range fleetSizes(o) {
		for _, mkSched := range []func() cluster.Scheduler{
			func() cluster.Scheduler { return cluster.LeastLoaded{} },
			func() cluster.Scheduler { return cluster.Quasar{} },
			func() cluster.Scheduler { return cluster.NewAffinity(cluster.LeastLoaded{}) },
		} {
			for _, trickle := range []bool{false, true} {
				sched := mkSched() // fresh per run: Affinity accumulates labels
				c := attack.NewCampaign(rng.Split(), size, sched, trickle)
				c.Engine.Workers = o.ShardWorkers
				out := c.Run(attack.Hooks{})
				strategy := "bulk"
				if trickle {
					strategy = "trickle"
				}
				tb.Add(
					fmt.Sprintf("%d", size),
					fmt.Sprintf("%d", out.VMs),
					sched.Name(),
					strategy,
					fmt.Sprintf("%.2f", out.CoResP),
					fmt.Sprintf("%d", out.Candidates),
					fmt.Sprintf("%.2f", out.Precision),
					fmt.Sprintf("%d", out.ProbeTicks),
				)
				key := fmt.Sprintf("%s_%s_%d", sched.Name(), strategy, size)
				rep.Metrics["coresidency_p_"+key] = out.CoResP
				rep.Metrics["precision_"+key] = out.Precision
				rep.Metrics["probe_ticks_"+key] = float64(out.ProbeTicks)
			}
		}
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Notes = append(rep.Notes,
		"affinity rows reproduce Repttack's finding: a scheduler that honours co-location hints hands the attacker placement; load-balancing schedulers leave co-residency to launch volume and churn",
		"probe scores are read from the sharded fleet-tick engine; the report is byte-identical at every -shardworkers level")
	return rep
}
