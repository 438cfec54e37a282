package exper

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bolt/internal/core"
	"bolt/internal/fault"
	"bolt/internal/par"
)

// byIDs looks the experiments up in the registry, in the given order.
func byIDs(t *testing.T, ids ...string) []Experiment {
	t.Helper()
	exps := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing from registry", id)
		}
		exps = append(exps, e)
	}
	return exps
}

// cheapSubset picks experiments that each finish in well under 100 ms so the
// determinism test can afford to run the suite twice.
func cheapSubset(t *testing.T) []Experiment {
	t.Helper()
	return byIDs(t, "fig4", "fig5", "fig11", "fig13", "isocost", "defence", "coresidency")
}

func renderAll(results []RunResult) string {
	var buf bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&buf, "== %s: %s ==\n", r.Experiment.ID, r.Experiment.Title)
		r.Report.Render(&buf)
	}
	return buf.String()
}

// TestRunParallelMatchesSerial is the determinism guarantee: the rendered
// reports from a parallel run must be byte-identical to a serial run at the
// same seed.
func TestRunParallelMatchesSerial(t *testing.T) {
	exps := cheapSubset(t)
	serial := renderAll(Run(exps, Options{Seed: 42, Parallel: 1}))
	parallel := renderAll(Run(exps, Options{Seed: 42, Parallel: 8}))
	if serial != parallel {
		t.Fatalf("parallel run diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if serial == "" {
		t.Fatal("rendered output is empty")
	}
}

// TestRunPreservesOrder: results come back in input order regardless of
// completion order.
func TestRunPreservesOrder(t *testing.T) {
	exps := cheapSubset(t)
	results := Run(exps, Options{Seed: 7, Parallel: 4})
	if len(results) != len(exps) {
		t.Fatalf("got %d results for %d experiments", len(results), len(exps))
	}
	for i, r := range results {
		if r.Experiment.ID != exps[i].ID {
			t.Fatalf("result %d is %q, want %q", i, r.Experiment.ID, exps[i].ID)
		}
		if r.Report == nil {
			t.Fatalf("result %d (%s) has no report", i, r.Experiment.ID)
		}
		if r.Report.ID != exps[i].ID {
			t.Fatalf("result %d report id %q, want %q", i, r.Report.ID, exps[i].ID)
		}
	}
}

func TestRunDegenerateInputs(t *testing.T) {
	if got := Run(nil, Options{Seed: 42, Parallel: 4}); len(got) != 0 {
		t.Fatalf("empty experiment list returned %d results", len(got))
	}
	// parallel beyond the experiment count and parallel<=0 must both work.
	exps := cheapSubset(t)[:2]
	if got := Run(exps, Options{Seed: 42, Parallel: 64}); len(got) != 2 {
		t.Fatalf("parallel>len returned %d results", len(got))
	}
	if got := Run(exps, Options{Seed: 42}); len(got) != 2 {
		t.Fatalf("parallel=0 returned %d results", len(got))
	}
}

// TestRunSharesCachedDetector runs six concurrent experiments that each
// train on the standard catalog and checks they all received the same
// *core.Detector from the cache. Under -race this also exercises concurrent
// first-touch of the cache and concurrent reads of the shared detector.
func TestRunSharesCachedDetector(t *testing.T) {
	const n = 6
	var inFlight, peak atomic.Int32
	ptrs := make([]*core.Detector, n)
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		exps[i] = Experiment{
			ID:    fmt.Sprintf("probe-%d", i),
			Title: "cache probe",
			Run: func(o Options) *Report {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				ptrs[i] = o.train(core.Config{})
				// Hold the slot briefly so the workers genuinely overlap.
				time.Sleep(20 * time.Millisecond)
				inFlight.Add(-1)
				return newReport(fmt.Sprintf("probe-%d", i), "cache probe")
			},
		}
	}
	Run(exps, Options{Seed: 42, Parallel: n})
	for i := 1; i < n; i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatalf("experiment %d trained its own detector", i)
		}
	}
	if ptrs[0] == nil {
		t.Fatal("no detector was trained")
	}
	if peak.Load() < 4 {
		t.Fatalf("peak concurrency %d, want >=4", peak.Load())
	}
}

// TestRunPanicNamesExperiment: a panic inside an experiment surfaces on the
// caller's goroutine as a *par.WorkerPanic naming the experiment, after the
// surviving experiments finished — so boltbench's profile defers and
// buffered reports are not torn down by a bare worker-goroutine crash.
func TestRunPanicNamesExperiment(t *testing.T) {
	var survivors atomic.Int32
	exps := []Experiment{
		{ID: "ok-0", Title: "survives", Run: func(Options) *Report {
			survivors.Add(1)
			return newReport("ok-0", "survives")
		}},
		{ID: "boom", Title: "panics", Run: func(Options) *Report {
			panic("synthetic failure")
		}},
		{ID: "ok-1", Title: "survives", Run: func(Options) *Report {
			survivors.Add(1)
			return newReport("ok-1", "survives")
		}},
	}
	defer func() {
		v := recover()
		wp, ok := v.(*par.WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *par.WorkerPanic", v, v)
		}
		if wp.Label != "experiment boom" {
			t.Fatalf("WorkerPanic.Label = %q, want %q", wp.Label, "experiment boom")
		}
		if !strings.Contains(wp.Error(), "synthetic failure") {
			t.Fatalf("WorkerPanic.Error() = %q, missing original panic value", wp.Error())
		}
		if survivors.Load() != 2 {
			t.Fatalf("%d surviving experiments ran, want 2", survivors.Load())
		}
	}()
	Run(exps, Options{Seed: 42, Parallel: 3})
	t.Fatal("Run returned instead of re-panicking")
}

// TestSuiteParityAcrossEpisodeWorkers pins the episode-pool determinism
// claim: the rendered output of the episode-pool experiments is
// byte-identical across every Parallel × EpisodeWorkers combination. The
// baseline is computed at runtime (parallel 1, epworkers 1 — the fully
// serial schedule), so the test survives intentional re-baselining of the
// golden numbers while still catching any schedule-dependent divergence.
func TestSuiteParityAcrossEpisodeWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the episode-pool experiments four times")
	}
	exps := byIDs(t, "table1", "confusion")
	render := func(parallel, epworkers int) []byte {
		return renderStdout(t, exps, Options{Seed: 42, Parallel: parallel, EpisodeWorkers: epworkers})
	}
	base := render(1, 1)
	for _, parallel := range []int{1, 8} {
		for _, epworkers := range []int{1, 4} {
			if parallel == 1 && epworkers == 1 {
				continue
			}
			if got := render(parallel, epworkers); !bytes.Equal(got, base) {
				t.Fatalf("output at parallel=%d epworkers=%d diverged from serial (b) at %s",
					parallel, epworkers, firstDivergence(got, base))
			}
		}
	}
}

// TestRunConcurrentOptionsIndependent runs two suites side by side in one
// process, each with its own Options, and requires each to render exactly
// what it renders alone on the serial schedule: no configuration leaks
// from one run into the other. The first pair differs only in worker
// widths, the second in fault injection.
func TestRunConcurrentOptionsIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table1, fleet and defencesweep eight times")
	}
	exps := byIDs(t, "table1", "fleet", "defencesweep")
	serial := func(o Options) Options {
		o.Parallel, o.EpisodeWorkers, o.ShardWorkers = 1, 1, 1
		return o
	}
	for _, pair := range [][2]Options{
		{{Seed: 42, EpisodeWorkers: 1, ShardWorkers: 1}, {Seed: 42, EpisodeWorkers: 4, ShardWorkers: 4}},
		{{Seed: 42, Faults: fault.Config{Rate: 0.25}}, {Seed: 42}},
	} {
		var got [2][]byte
		var wg sync.WaitGroup
		for i := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = renderStdout(t, exps, pair[i])
			}()
		}
		wg.Wait()
		for i, o := range pair {
			if want := renderStdout(t, exps, serial(o)); !bytes.Equal(got[i], want) {
				t.Fatalf("%+v run concurrently diverged from its serial run (b) at %s",
					o, firstDivergence(got[i], want))
			}
		}
		if pair[0].Faults != pair[1].Faults && bytes.Equal(got[0], got[1]) {
			t.Fatal("faulted and fault-free runs rendered the same bytes; the check is vacuous")
		}
	}
}
