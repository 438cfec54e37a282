package exper

import (
	"bolt/internal/attack"
	"bolt/internal/core"
	"bolt/internal/defence"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/trace"
	"bolt/internal/workload"
)

// DefenceEvasion measures the §5.1 evasion claim head-on: Bolt's
// detection-guided DoS and the naive CPU-saturating DoS each run against
// two provider-side detectors — the standard CPU-threshold load trigger
// (the sensor behind live migration) and a multi-resource anomaly detector
// that baselines every shared resource. The paper's claim holds when the
// CPU trigger fires on the naive attack and stays silent on Bolt's; the
// extension shows what a provider would have to monitor to close the gap.
func DefenceEvasion(o Options) *Report {
	rep := newReport("defence", "Does Bolt's DoS evade provider-side detection?")
	rng := stats.NewRNG(o.Seed ^ 0xdefe)
	det := o.train(core.Config{})

	type cellResult struct {
		alarmed bool
		at      sim.Tick
	}
	run := func(naive bool, mk func() defence.Detector) cellResult {
		s := sim.NewServer("s0", sim.ServerConfig{})
		spec := workload.Memcached(rng.Split(), 1)
		spec.Jitter = 0.03 // live variation so the baseline has a variance
		app := workload.NewApp(spec, workload.Constant{Level: 0.9}, rng.Uint64())
		victim := &sim.VM{ID: "victim", VCPUs: 3, App: app}
		if err := s.Place(victim); err != nil {
			panic(err)
		}
		adv := probe.NewAdversary("adv", 4, probe.Config{Faults: o.Faults}, rng.Split())
		if err := s.Place(adv.VM); err != nil {
			panic(err)
		}

		monitor := mk()
		const attackAt = 30 * sim.TicksPerSecond
		var plan attack.DoSPlan
		for t := sim.Tick(0); t < 180*sim.TicksPerSecond; t++ {
			if t == attackAt {
				d := det.Detect(s, adv, t, 1)
				if naive {
					plan = attack.NaiveDoSPlan()
				} else {
					plan = attack.PlanDoS(d, 2)
				}
				attack.Launch(adv, plan)
			}
			monitor.Observe(t, defence.HostUsage(s, t))
		}
		attack.Stop(adv)
		alarmed, at := monitor.Alarmed()
		return cellResult{alarmed, at}
	}

	tb := trace.NewTable("Attack vs provider-side detector",
		"Attack", "cpu-threshold trigger", "multi-resource anomaly")
	render := func(c cellResult) string {
		if !c.alarmed {
			return "no alarm (evaded)"
		}
		return defence.Verdict{Detector: "", Alarmed: true, At: c.at}.String()[2:]
	}

	boltCPU := run(false, func() defence.Detector { return defence.NewCPUThreshold() })
	boltAnom := run(false, func() defence.Detector { return defence.NewMultiResourceAnomaly() })
	naiveCPU := run(true, func() defence.Detector { return defence.NewCPUThreshold() })
	naiveAnom := run(true, func() defence.Detector { return defence.NewMultiResourceAnomaly() })

	tb.Add("Bolt (targeted, CPU-free)", render(boltCPU), render(boltAnom))
	tb.Add("naive (CPU-saturating)", render(naiveCPU), render(naiveAnom))
	rep.Tables = append(rep.Tables, tb)

	rep.Metrics["bolt_evades_cpu_trigger"] = b2f(!boltCPU.alarmed)
	rep.Metrics["naive_trips_cpu_trigger"] = b2f(naiveCPU.alarmed)
	rep.Metrics["anomaly_catches_bolt"] = b2f(boltAnom.alarmed)
	rep.Metrics["anomaly_catches_naive"] = b2f(naiveAnom.alarmed)
	rep.Notes = append(rep.Notes,
		"paper (§5.1): Bolt keeps utilisation moderate and evades load-triggered defences; extension: a detector baselining every shared resource closes the gap")
	return rep
}
