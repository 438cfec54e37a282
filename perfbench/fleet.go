package main

import (
	"fmt"
	"runtime"
	"time"

	"bolt/internal/attack"
	"bolt/internal/cluster"
	"bolt/internal/fleet"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// fleetServers is the datacenter size of the fleet workload: about 20.5k
// VMs, 4000 times the working set of one episode host.
const fleetServers = 4096

// newCampaign builds the trickle Repttack campaign against an
// affinity-honouring least-loaded scheduler.
func newCampaign(seed uint64, servers int) *attack.Campaign {
	rng := stats.NewRNG(seed ^ 0xf1ee7)
	return attack.NewCampaign(rng, servers, cluster.NewAffinity(cluster.LeastLoaded{}), true)
}

// tickClock records when each fleet tick and each probe window ended. Its
// hooks only read the clock, so the campaign runs exactly as unhooked.
type tickClock struct {
	ticks   []time.Time // indexed by tick
	events  int
	windows []time.Time // when each window's last tick ended
}

func (c *tickClock) hooks() attack.Hooks {
	return attack.Hooks{
		AfterTick: func(t sim.Tick, events []fleet.Event) {
			c.ticks = append(c.ticks, time.Now())
			c.events += len(events)
		},
		AfterWindow: func(int, []float64) { c.windows = append(c.windows, time.Now()) },
	}
}

// tickTimes returns the spacing of consecutive ticks inside each probe
// window, in ms, and for every window after the first the time from the
// end of the previous window to the first tick of this one.
func (c *tickClock) tickTimes() (inWindow, gaps []float64) {
	for t := 1; t < len(c.ticks); t++ {
		if t%attack.CampaignProbeWindow == 0 {
			gaps = append(gaps, ms(c.ticks[t].Sub(c.windows[t/attack.CampaignProbeWindow-1])))
			continue
		}
		inWindow = append(inWindow, ms(c.ticks[t].Sub(c.ticks[t-1])))
	}
	return inWindow, gaps
}

// fleetRun is one campaign: built, run, and its outcome.
type fleetRun struct {
	start            time.Time
	build, wall, cpu time.Duration
	out              attack.Outcome
	clock            tickClock
	c                *attack.Campaign
	panic            string
}

func runCampaign(seed uint64, servers int) (r fleetRun) {
	defer func() {
		if p := recover(); p != nil {
			r.panic = fmt.Sprint(p)
		}
	}()
	t0 := time.Now()
	r.c = newCampaign(seed, servers)
	r.build = time.Since(t0)
	// Collect the previous campaign's garbage now, so that its collection
	// does not land inside this campaign's timed run.
	runtime.GC()
	c0 := processCPU()
	r.start = time.Now()
	r.out = r.c.Run(r.clock.hooks())
	r.wall, r.cpu = time.Since(r.start), processCPU()-c0
	return r
}

// windowWalls splits the campaign's wall time at the end of each probe
// window and returns the pieces in ms: each window with the churn and
// launches before it, then the judgment after the last.
func (r *fleetRun) windowWalls() []float64 {
	out := make([]float64, 0, len(r.clock.windows)+1)
	prev := r.start
	for _, w := range r.clock.windows {
		out = append(out, ms(w.Sub(prev)))
		prev = w
	}
	return append(out, ms(r.start.Add(r.wall).Sub(prev)))
}

// runFleet measures the fleet tick: campaigns built from the same seed and
// run one after another for at least dur and at least enough ticks for a
// p99 tick time.
func runFleet(seed uint64, dur time.Duration, ts *traceSet, rep *report) {
	runFleetSized(seed, fleetServers, dur, ts, rep)
}

func runFleetSized(seed uint64, servers int, dur time.Duration, ts *traceSet, rep *report) {
	timed := rep.phase("campaigns")
	var builds, ticks, gaps []float64
	// Every campaign repeats the same work, so the wall-time figures take
	// each probe window's and each tick's quickest time over the campaigns
	// (see quickest); the CPU figure is a median over campaigns.
	var windowWalls, tickWalls [][]float64
	var tickCPU []float64
	var first *attack.Outcome
	var last fleetRun
	for begin := time.Now(); time.Since(begin) < dur || len(ticks) < minTailSamples; {
		if time.Since(begin) > maxOverrun*dur {
			rep.problem("fleet: fewer than %d ticks in %v", minTailSamples, maxOverrun*dur)
			break
		}
		r := runCampaign(seed, servers)
		switch {
		case r.panic != "":
			timed.fail()
			rep.problem("fleet: campaign panicked: %s", r.panic)
			continue
		case first != nil && r.out != *first:
			timed.fail()
			rep.problem("fleet: repeat outcome differs: %+v vs %+v", r.out, *first)
			continue
		}
		timed.ok()
		if first == nil {
			first = &r.out
		}
		builds = append(builds, r.build.Seconds())
		in, g := r.clock.tickTimes()
		ticks, gaps = append(ticks, in...), append(gaps, g...)
		windowWalls = append(windowWalls, r.windowWalls())
		tickWalls = append(tickWalls, in)
		tickCPU = append(tickCPU, ms(r.cpu)/float64(len(r.clock.ticks)))
		last = r
	}
	if first == nil {
		return
	}
	d := summarise(ticks)
	rep.set("setup_s", median(builds), "s")
	rep.set("ops_per_s", float64(servers*len(last.clock.ticks))/(sum(quickest(windowWalls))/1e3), "1/s")
	rep.set("cpu_ms_per_op", median(tickCPU), "ms")
	rep.set("latency_p50_ms", median(quickest(tickWalls)), "ms")
	rep.set("quality_pct", 100*first.Precision, "%")
	if ts == nil {
		return
	}
	tick := d.P50
	between := make([]float64, len(gaps))
	for i, g := range gaps {
		between[i] = g - tick // the gap also holds the next window's first tick
	}
	rep.set("fleet.tick_ms", tick, "ms")
	rep.setP99("fleet.tick_p99_ms", d, "ms")
	rep.set("attack.between_windows_ms", median(between), "ms")
	rep.set("fleet.events_per_tick", float64(last.clock.events)/float64(len(last.clock.ticks)), "count")
	rep.set("fleet.vms", float64(first.VMs), "count")
	l := ts.newLane()
	for t := 1; t < len(last.clock.ticks); t++ {
		l.add("fleet.tick", 0, last.clock.ticks[t-1], last.clock.ticks[t])
	}
	replayFleet(last.c, l, rep)
}

// replayFleet times, on a campaign that has finished its run, ticks with
// no per-server body, CPUUtilization reads at fresh ticks and placements
// through the campaign's scheduler.
func replayFleet(c *attack.Campaign, l *lane, rep *report) {
	var nilTicks, util, place []float64
	t := c.T
	for k := 0; k < 16; k++ {
		t0 := time.Now()
		c.Engine.Tick(t, nil)
		t1 := time.Now()
		nilTicks = append(nilTicks, ms(t1.Sub(t0)))
		l.add("fleet.tick_nil", 0, t0, t1)
		t++
	}
	for i, s := range c.Cl.Servers {
		if i%16 != 0 {
			continue
		}
		t0 := time.Now()
		s.CPUUtilization(t + 1)
		t1 := time.Now()
		util = append(util, float64(t1.Sub(t0)))
		l.add("sim.cpu_utilization", 0, t0, t1)
	}
	probe := workload.Spec{Label: "probe:replay", Class: "probe"}
	for k := 0; k < 256; k++ {
		vm := &sim.VM{ID: fmt.Sprintf("replay-%d", k), VCPUs: 1,
			App: workload.NewApp(probe, workload.Constant{Level: 0}, uint64(k))}
		t0 := time.Now()
		_, err := c.Cl.Place(vm, t)
		t1 := time.Now()
		place = append(place, us(t1.Sub(t0)))
		l.add("cluster.place", 0, t0, t1)
		if err != nil {
			break // fleet full
		}
	}
	rep.set("fleet.tick_nil_ms", median(nilTicks), "ms")
	rep.set("sim.cpu_util_ns", median(util), "ns")
	rep.set("cluster.place_us", median(place), "us")
}
