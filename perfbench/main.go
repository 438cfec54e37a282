// Command perfbench is the repository's benchmark. One run drives one
// workload through the layers' public functions, checks its outputs and
// prints every metric by name and unit; README.md describes the workloads,
// the metrics and the layer each one measures. Run it from the root of the
// repository, through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload episodes --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// With --trace 0 the metrics are the end_to_end ones BENCHMARK.json names;
// with --trace 1 its per_layer ones, from a run that records a span around
// the calls into each layer and writes the spans to .bench_build/traces/.
// Lines before the result describe the host and count each phase's
// operations. A failed correctness check makes the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// minTailSamples is the fewest latency samples a timed phase collects: the
// p99 then has at least tailMinBeyond samples beyond it.
const minTailSamples = 1000

// maxProblemLines is how many failed checks a run prints.
const maxProblemLines = 20

// maxOverrun bounds how far past --seconds a phase may run while it still
// lacks minTailSamples samples.
const maxOverrun = 3

// workloadFunc runs one workload for dur, recording spans into ts when it is
// non-nil, and fills rep.
type workloadFunc func(seed uint64, dur time.Duration, ts *traceSet, rep *report)

var workloads = map[string]workloadFunc{
	"episodes": runEpisodes,
	"serve":    runServe,
	"fleet":    runFleet,
}

// miniRuns are the short traced runs a --trace 1 run adds for the layers its
// own workload does not call, so that every workload reports every
// per-layer metric.
var miniRuns = map[string]func(seed uint64, ts *traceSet, rep *report){
	"episodes": func(seed uint64, ts *traceSet, rep *report) { runEpisodes(seed, time.Second, ts, rep) },
	"serve":    func(seed uint64, ts *traceSet, rep *report) { runServe(seed, 2*time.Second, ts, rep) },
	"fleet": func(seed uint64, ts *traceSet, rep *report) {
		runFleetSized(seed, miniFleetServers, time.Second, ts, rep)
	},
}

// miniFleetServers is the fleet size of the fleet mini run.
const miniFleetServers = 256

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: episodes, serve or fleet")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload episodes|serve|fleet, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	hostLine, err := json.Marshal(hostFacts())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("host %s\n", hostLine)

	dur := time.Duration(*seconds) * time.Second
	var rep *report
	want := spec.EndToEnd
	if *trace == 1 {
		rep = traced(*name, w, *seed, dur)
		want = spec.PerLayer
	} else {
		rep = newReport()
		w(*seed, dur, nil, rep)
		rep.set("mem_sys_mb", memSysMB(), "MB")
	}
	metrics := rep.only(want)
	for _, p := range rep.phases {
		line, _ := json.Marshal(p)
		fmt.Printf("phase %s\n", line)
	}
	for _, t := range rep.tails {
		line, _ := json.Marshal(t)
		fmt.Printf("samples %s\n", line)
	}
	for i, p := range rep.problems {
		if i == maxProblemLines {
			fmt.Fprintf(os.Stderr, "perfbench: and %d more failed checks\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	attempted, failed := rep.totals()
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, attempted, failed, metrics}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !result.Correct {
		return 1
	}
	return 0
}

// specMetric is one metric BENCHMARK.json names.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read the metric list: %w (run from the root of the repository)", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// only returns exactly the listed metrics. A listed metric the run did not
// measure, measured in another unit, or that is not finite (JSON cannot
// carry NaN or infinities; it is printed as -1) is a failed check.
func (r *report) only(want []specMetric) map[string]metric {
	out := make(map[string]metric, len(want))
	for _, w := range want {
		m, ok := r.metrics[w.Name]
		switch {
		case !ok:
			r.problem("metric %s was not measured", w.Name)
			m = metric{Value: -1, Unit: w.Unit}
		case m.Unit != w.Unit:
			r.problem("metric %s measured in %s, listed in %s", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			r.problem("metric %s is not finite", w.Name)
			m.Value = -1
		}
		out[w.Name] = m
	}
	return out
}

// traced is the --trace 1 run. It runs the workload untraced and then
// traced, each for half of dur, and reports the difference of their median
// latencies as the tracing overhead. The other workloads then run briefly,
// traced, for the per-layer metrics of layers this workload does not call.
// The spans are written to .bench_build/traces/.
func traced(name string, w workloadFunc, seed uint64, dur time.Duration) *report {
	base := newReport()
	w(seed, dur/2, nil, base)
	rep := newReport()
	ts := newTraceSet()
	w(seed, dur/2, ts, rep)
	rep.problems = append(rep.problems, base.problems...)
	for _, p := range base.phases {
		p.Name = "untraced." + p.Name
		rep.phases = append(rep.phases, p)
	}
	rep.set("trace.overhead_ms",
		rep.metrics["latency_p50_ms"].Value-base.metrics["latency_p50_ms"].Value, "ms")

	others := make([]string, 0, len(miniRuns))
	for o := range miniRuns {
		if o != name {
			others = append(others, o)
		}
	}
	sort.Strings(others)
	for _, o := range others {
		mini := newReport()
		miniRuns[o](seed, ts, mini)
		taken := map[string]bool{}
		for k, m := range mini.metrics {
			if _, ok := rep.metrics[k]; !ok {
				rep.metrics[k] = m
				taken[k] = true
			}
		}
		for _, t := range mini.tails {
			if taken[t.Metric] {
				rep.tails = append(rep.tails, t)
			}
		}
		for _, p := range mini.phases {
			p.Name = "mini." + p.Name
			rep.phases = append(rep.phases, p)
		}
		rep.problems = append(rep.problems, mini.problems...)
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := ts.write(path); err != nil {
		rep.problem("write trace: %v", err)
	}
	return rep
}
