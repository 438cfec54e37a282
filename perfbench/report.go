package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// metric is one named figure as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase counts the operations of one stage of a workload.
type phase struct {
	Name      string `json:"phase"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

func (p *phase) ok()   { p.Attempted++; p.Succeeded++ }
func (p *phase) fail() { p.Attempted++; p.Failed++ }

// tailCount records how many samples a p99 metric rests on and the highest
// percentile that count supports (see highestTail).
type tailCount struct {
	Metric  string  `json:"metric"`
	Samples int     `json:"samples"`
	Highest float64 `json:"highest_valid_pct"`
}

// report collects what one run measured and checked.
type report struct {
	phases  []*phase
	metrics map[string]metric
	tails   []tailCount
	// problems lists every failed correctness check; any entry makes the
	// run incorrect.
	problems []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// phase returns the named phase, creating it on first use.
func (r *report) phase(name string) *phase {
	for _, p := range r.phases {
		if p.Name == name {
			return p
		}
	}
	p := &phase{Name: name}
	r.phases = append(r.phases, p)
	return p
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// setP99 sets a p99 metric from d and records its sample count.
func (r *report) setP99(name string, d dist, unit string) {
	r.set(name, d.P99, unit)
	r.tails = append(r.tails, tailCount{name, d.N, d.Tail})
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// totals sums the phases.
func (r *report) totals() (attempted, failed int) {
	for _, p := range r.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// memSysMB reads the bytes of memory the Go runtime holds from the OS.
func memSysMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// processCPU returns the user plus system CPU time the process has used.
// Time the hypervisor gave to other guests is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
