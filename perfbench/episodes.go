package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// The §3.4 controlled set-up: a 40-server least-loaded cluster, one 4-vCPU
// adversary per server and 108 victims of 1 to 6 vCPUs.
const (
	epServers        = 40
	epVictims        = 108
	epAdvVCPUs       = 4
	epMaxVictimVCPUs = 6
	// epTickStride spaces the hosts' episode start ticks; hosts are
	// independent worlds, so the stride only phases their load patterns.
	epTickStride = 1 << 13
	// epMaxSteps and epStopSimilarity are core.Config's defaults, which
	// Detect applies; the traced driver repeats Detect's loop with them.
	epMaxSteps       = 6
	epStopSimilarity = 0.75
)

// epHost is one server of the controlled set-up with its adversary and the
// labels of the victims the scheduler put there.
type epHost struct {
	server  *sim.Server
	adv     *probe.Adversary
	victims []string
	start   sim.Tick
}

// buildHosts builds the controlled set-up from seed through public calls
// only. The same seed always gives the same hosts; every host has at least
// one victim.
func buildHosts(seed uint64) []epHost {
	rng := stats.NewRNG(seed ^ 0xe915_0de5)
	cl := cluster.New(epServers, sim.ServerConfig{}, cluster.LeastLoaded{})
	index := make(map[*sim.Server]int, epServers)
	hosts := make([]epHost, epServers)
	for i, s := range cl.Servers {
		index[s] = i
		adv := probe.NewAdversary("bolt-"+s.Name(), epAdvVCPUs, probe.Config{}, rng.Split())
		if err := s.Place(adv.VM); err != nil {
			panic(fmt.Sprintf("adversary does not fit on %s: %v", s.Name(), err))
		}
		hosts[i] = epHost{server: s, adv: adv}
	}
	for i, spec := range workload.VictimSpecs(seed, epVictims) {
		vcpus := 1 + rng.Intn(epMaxVictimVCPUs)
		// Smaller deployments drive proportionally less host-wide traffic.
		size := 0.55 + 0.11*float64(vcpus)
		if size > 1.1 {
			size = 1.1
		}
		for _, r := range sim.UncoreResources() {
			spec.Base.Set(r, spec.Base.Get(r)*size)
		}
		var pattern workload.LoadPattern = workload.Constant{Level: rng.Range(0.8, 1.0)}
		switch spec.Class {
		case "memcached", "redis", "webserver", "mysql", "postgres", "cassandra", "mongodb", "storm":
			if rng.Bool(0.35) {
				pattern = workload.Bursty{
					OnLevel:  rng.Range(0.85, 1.0),
					OffLevel: rng.Range(0.25, 0.45),
					OnTicks:  sim.Tick(rng.Range(60, 160)),
					OffTicks: sim.Tick(rng.Range(20, 60)),
					Offset:   sim.Tick(rng.Intn(100)),
				}
			}
		}
		vm := &sim.VM{
			ID:    fmt.Sprintf("victim-%03d-%s", i, spec.Label),
			VCPUs: vcpus,
			App:   workload.NewApp(spec, pattern, rng.Uint64()),
		}
		host, err := cl.Place(vm, 0)
		if err != nil {
			continue // cluster full: the victim is not launched
		}
		h := &hosts[index[host]]
		h.victims = append(h.victims, spec.Label)
	}
	out := hosts[:0]
	for _, h := range hosts {
		if len(h.victims) > 0 {
			h.start = sim.Tick(len(out)) * epTickStride
			out = append(out, h)
		}
	}
	return out
}

// epOutcome is what one episode found. Two runs of the same host must give
// equal outcomes.
type epOutcome struct {
	labels  string // primary label, then each candidate's
	ticks   sim.Tick
	steps   int
	correct int // victims matched by the result or a candidate
	shutter bool
	shared  bool
	panic   string
}

func grade(h *epHost, res *mining.Result, cands []*mining.Result) (labels string, correct int) {
	labels = res.Best().Label
	for _, c := range cands {
		labels += "," + c.Best().Label
	}
	for _, v := range h.victims {
		ok := core.LabelMatches(res.Best().Label, v)
		for _, c := range cands {
			ok = ok || core.LabelMatches(c.Best().Label, v)
		}
		if ok {
			correct++
		}
	}
	return labels, correct
}

// detect runs one Detect episode on h.
func detect(det *core.Detector, h *epHost) (o epOutcome) {
	defer func() {
		if p := recover(); p != nil {
			o = epOutcome{panic: fmt.Sprint(p)}
		}
	}()
	d := det.Detect(h.server, h.adv, h.start, len(h.victims))
	o.labels, o.correct = grade(h, d.Result, d.CoResidents)
	o.ticks, o.steps, o.shutter, o.shared = d.Ticks, d.Iterations, d.UsedShutter, d.CoreShared
	return o
}

// detectTraced runs the same episode as detect through NewEpisode, Step and
// Candidates, recording a span around each call. It also returns the
// episode's final observation for the mining replay.
func detectTraced(det *core.Detector, h *epHost, l *lane) (o epOutcome, obs sim.Vector, known [sim.NumResources]bool) {
	defer func() {
		if p := recover(); p != nil {
			o = epOutcome{panic: fmt.Sprint(p)}
		}
	}()
	root := l.begin("episode", 0)
	e := det.NewEpisode(h.server, h.adv)
	var res *mining.Result
	for i := 0; i < epMaxSteps; i++ {
		id := l.begin("core.step", root)
		res = e.Step(h.start)
		l.end(id)
		if res.Best().Similarity >= epStopSimilarity {
			break
		}
	}
	id := l.begin("core.candidates", root)
	cands := e.Candidates(len(h.victims))
	l.end(id)
	l.end(root)
	o.labels, o.correct = grade(h, res, cands)
	o.ticks, o.steps, o.shutter, o.shared = e.Ticks, e.Iterations, e.UsedShutter, e.CoreShared
	obs, known = e.Observation()
	return o, obs, known
}

// episodeWorkers is how many goroutines issue episodes: one per processor
// the Go runtime schedules on, which is nproc by default.
func episodeWorkers(hosts int) int {
	g := runtime.GOMAXPROCS(0)
	if g > hosts {
		g = hosts
	}
	return g
}

// epRound is one pass over every host.
type epRound struct {
	wall     time.Duration
	lat      []time.Duration // per episode, indexed by host
	outcomes []epOutcome
	obs      []sim.Vector
	known    [][sim.NumResources]bool
}

// runRound runs one episode per host from episodeWorkers goroutines, each
// owning the hosts whose index is congruent to its own number. Hosts share
// nothing but the immutable detector, so the goroutines share no state.
// With a non-nil trace every goroutine records into its own lane.
func runRound(det *core.Detector, hosts []epHost, ts *traceSet) epRound {
	r := epRound{
		lat:      make([]time.Duration, len(hosts)),
		outcomes: make([]epOutcome, len(hosts)),
		obs:      make([]sim.Vector, len(hosts)),
		known:    make([][sim.NumResources]bool, len(hosts)),
	}
	g := episodeWorkers(len(hosts))
	lanes := make([]*lane, g)
	for w := range lanes {
		lanes[w] = ts.newLane()
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(hosts); i += g {
				start := time.Now()
				if ts == nil {
					r.outcomes[i] = detect(det, &hosts[i])
				} else {
					r.outcomes[i], r.obs[i], r.known[i] = detectTraced(det, &hosts[i], lanes[w])
				}
				r.lat[i] = time.Since(start)
			}
		}(w)
	}
	wg.Wait()
	r.wall = time.Since(t0)
	return r
}

// epSetup trains a detector and builds one world, and returns the detector
// with the time both took and the time training took.
func epSetup(seed uint64) (det *core.Detector, setup, train time.Duration) {
	t0 := time.Now()
	det = core.Train(workload.TrainingSpecs(seed), core.Config{})
	train = time.Since(t0)
	buildHosts(seed)
	return det, time.Since(t0), train
}

// setupRepeats is how many times a workload sets up within a run; setup_s
// is their median.
const setupRepeats = 21

// epWorlds is how many distinct controlled set-ups one run cycles through,
// each drawn from the run's seed; more worlds average out how much work one
// world's victims happen to need.
const epWorlds = 32

// worldSeeds derives the run's world seeds from its seed.
func worldSeeds(seed uint64) []uint64 {
	rng := stats.NewRNG(seed)
	out := make([]uint64, epWorlds)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// runEpisodes measures the detection loop in cycles: a cycle runs one round
// of one episode per host on a freshly built copy of each world. It runs
// cycles for at least dur and at least minTailSamples episodes.
func runEpisodes(seed uint64, dur time.Duration, ts *traceSet, rep *report) {
	seeds := worldSeeds(seed)
	var setups, trains []float64
	var det *core.Detector
	for i := 0; i < setupRepeats; i++ {
		d, s, t := epSetup(seeds[i%len(seeds)])
		setups, trains = append(setups, s.Seconds()), append(trains, ms(t))
		if det == nil {
			det = d
		}
	}
	rep.set("setup_s", median(setups), "s")

	timed := rep.phase("episodes")
	first := make([][]epOutcome, len(seeds))
	// Every cycle repeats the same work, so ops_per_s takes each world's
	// round, a fan-out that ends with its slowest goroutine, at its quickest
	// over the cycles (see quickest). The other figures are medians over
	// cycles.
	var lat, cycleP50, cycleCPU []float64
	var roundWalls [][]float64
	perCycle := 0 // episodes in one cycle
	var ticks, steps, correct, victims, shutter, shared, episodes int
	var obs []sim.Vector
	var known [][sim.NumResources]bool
	for begin := time.Now(); time.Since(begin) < dur || len(lat) < minTailSamples; {
		if time.Since(begin) > maxOverrun*dur {
			rep.problem("episodes: fewer than %d episodes in %v", minTailSamples, maxOverrun*dur)
			break
		}
		var cpu time.Duration
		var cycleLat, walls []float64
		n := 0
		for w, ws := range seeds {
			hosts := buildHosts(ws)
			c0 := processCPU()
			r := runRound(det, hosts, ts)
			cpu += processCPU() - c0
			walls = append(walls, ms(r.wall))
			n += len(hosts)
			for i, o := range r.outcomes {
				switch {
				case o.panic != "":
					timed.fail()
					rep.problem("episodes: world %d host %d panicked: %s", w, i, o.panic)
					continue
				case first[w] != nil && o != first[w][i]:
					timed.fail()
					rep.problem("episodes: world %d host %d repeat differs: %+v vs %+v", w, i, o, first[w][i])
					continue
				}
				timed.ok()
				cycleLat = append(cycleLat, ms(r.lat[i]))
				if first[w] == nil {
					episodes++
					ticks += int(o.ticks)
					steps += o.steps
					correct += o.correct
					victims += len(hosts[i].victims)
					if o.shutter {
						shutter++
					}
					if o.shared {
						shared++
					}
				}
			}
			if first[w] == nil {
				first[w] = r.outcomes
			}
			if ts != nil {
				obs, known = append(obs, r.obs...), append(known, r.known...)
			}
		}
		lat = append(lat, cycleLat...)
		perCycle = n
		roundWalls = append(roundWalls, walls)
		cycleP50 = append(cycleP50, median(cycleLat))
		cycleCPU = append(cycleCPU, ms(cpu)/float64(n))
	}
	d := summarise(lat)
	rep.set("ops_per_s", float64(perCycle)/(sum(quickest(roundWalls))/1e3), "1/s")
	rep.set("latency_p50_ms", median(cycleP50), "ms")
	rep.set("cpu_ms_per_op", median(cycleCPU), "ms")
	rep.set("quality_pct", 100*float64(correct)/float64(victims), "%")
	if ts == nil {
		return
	}
	n := float64(episodes)
	rep.setP99("core.episode_p99_ms", d, "ms")
	rep.set("core.step_us", median(ts.durations("core.step")), "us")
	rep.set("core.candidates_us", median(ts.durations("core.candidates")), "us")
	rep.set("core.steps_per_episode", float64(steps)/n, "count")
	rep.set("core.sim_ticks_per_episode", float64(ticks)/n, "ticks")
	rep.set("core.shutter_frac", float64(shutter)/n, "ratio")
	rep.set("core.core_shared_frac", float64(shared)/n, "ratio")
	rep.set("mining.train_ms", median(trains), "ms")
	l := ts.newLane()
	replayProbe(seeds[0], l, rep)
	replayDetect(det, obs, known, l, rep)
}

// replayProbe times single ProfileOnce ramps and single ObservedVector
// reads on freshly built episode hosts.
func replayProbe(seed uint64, l *lane, rep *report) {
	hosts := buildHosts(seed)
	var prof, obs []float64
	ticks := 0
	for _, h := range hosts {
		t0 := time.Now()
		p := h.adv.ProfileOnce(h.server, h.start, 0)
		t1 := time.Now()
		prof = append(prof, us(t1.Sub(t0)))
		l.add("probe.profile_once", 0, t0, t1)
		ticks += int(p.Ticks)
		// Ticks past every episode's horizon are fresh: nothing has
		// observed them yet, so no per-tick snapshot is cached.
		for k := 0; k < 64; k++ {
			t := h.start + epTickStride/2 + sim.Tick(k)
			t0 := time.Now()
			h.server.ObservedVector(h.adv.VM, t)
			t1 := time.Now()
			obs = append(obs, float64(t1.Sub(t0)))
			l.add("sim.observed_vector", 0, t0, t1)
		}
	}
	rep.set("probe.profile_once_us", median(prof), "us")
	rep.set("probe.ticks_per_profile", float64(ticks)/float64(len(hosts)), "ticks")
	rep.set("sim.observe_ns", median(obs), "ns")
}

// replayDetect times solo Recommender.Detect on the observations the
// traced episodes ended with.
func replayDetect(det *core.Detector, obs []sim.Vector, known [][sim.NumResources]bool, l *lane, rep *report) {
	var t []float64
	o := make([]float64, sim.NumResources)
	for i := range obs {
		copy(o, obs[i].Slice())
		t0 := time.Now()
		det.Rec.Detect(o, known[i][:])
		t1 := time.Now()
		t = append(t, us(t1.Sub(t0)))
		l.add("mining.detect", 0, t0, t1)
	}
	rep.set("mining.detect_us", median(t), "us")
}
