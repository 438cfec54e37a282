package exper

import (
	"runtime"
	"time"

	"bolt/internal/core"
	"bolt/internal/fault"
	"bolt/internal/par"
	"bolt/internal/workload"
)

// Options is the whole configuration of one suite run. Experiments read
// it and nothing else, so two runs with different Options can proceed
// side by side in one process.
//
// Parallel, EpisodeWorkers and ShardWorkers are pure throughput knobs:
// every experiment, episode and fleet server draws from its own pre-split
// RNG stream and results merge in input order, so the rendered output is
// byte-identical at every width. Run resolves a zero width to GOMAXPROCS;
// an experiment called directly reads the widths as given, and a width of
// 0 or 1 runs inline. Faults, FleetServers, Defence and FixedFoldIn change
// what is computed: different values are different experiments.
type Options struct {
	Seed uint64
	// Parallel is how many experiments Run keeps in flight at once.
	Parallel int
	// EpisodeWorkers is how many episodes may run concurrently inside one
	// experiment.
	EpisodeWorkers int
	// ShardWorkers is how many fleet-tick shards advance concurrently
	// inside the fleet and defencesweep experiments.
	ShardWorkers int
	// Faults is the fault-injection config of every adversary whose
	// experiment sets none of its own; the zero value injects nothing.
	Faults fault.Config
	// FleetServers pins the fleet-scale experiments' server count; 0
	// sweeps the default ladder.
	FleetServers int
	// Defence lists the defencesweep placement policies; empty runs the
	// full ladder.
	Defence []string
	// FixedFoldIn runs every experiment detector's fold-in for the full
	// sweep budget instead of stopping at the convergence gate (see
	// mining.CompletionConfig.FixedFoldIn).
	FixedFoldIn bool
}

// train is core.TrainCached on o.Seed's training set, with o.FixedFoldIn
// ORed into the completion config. Every experiment trains through it.
func (o Options) train(cfg core.Config) *core.Detector {
	if o.FixedFoldIn {
		cfg.Recommender.Completion.FixedFoldIn = true
	}
	return core.TrainCached(workload.TrainingSpecs(o.Seed), cfg)
}

// RunResult is one experiment's finished output.
type RunResult struct {
	Experiment Experiment
	Report     *Report
	Elapsed    time.Duration
}

// Run executes the experiments with at most o.Parallel of them in flight
// at once and returns their results in input order. Zero worker counts in
// o are resolved to GOMAXPROCS here, once, before any experiment starts.
//
// Each experiment is a pure function of its Options — it builds its own
// RNGs and (via core.TrainCached) shares a read-only trained detector — so
// the results are identical at every parallelism level: running with
// Parallel=8 and Parallel=1 yields byte-for-byte the same rendered
// reports. Only the wall-clock interleaving differs, which is why Elapsed
// is the sole field a caller must not compare across runs.
//
// A panic inside an experiment does not take the process down with a bare
// worker-goroutine trace: par.FanOut recovers it, lets the other
// experiments finish, and re-raises it on the caller's goroutine as a
// *par.WorkerPanic naming the experiment — so the caller's defers
// (boltbench's profile writers in particular) still run.
func Run(exps []Experiment, o Options) []RunResult {
	procs := runtime.GOMAXPROCS(0)
	for _, w := range []*int{&o.Parallel, &o.EpisodeWorkers, &o.ShardWorkers} {
		if *w <= 0 {
			*w = procs
		}
	}
	results := make([]RunResult, len(exps))
	par.FanOut(len(exps), o.Parallel,
		func(i int) string { return "experiment " + exps[i].ID },
		func(i int) {
			start := time.Now() //bolt:nolint detrand -- Elapsed is diagnostic-only and documented as never compared across runs; no report bytes derive from it
			rep := exps[i].Run(o)
			results[i] = RunResult{Experiment: exps[i], Report: rep, Elapsed: time.Since(start)} //bolt:nolint detrand -- same: wall-clock feeds only the Elapsed diagnostic field
		})
	return results
}
