package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"bolt/internal/stats"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	const qps, dur, n = 2000, 2 * time.Second, 10
	a := schedule(stats.NewRNG(7), qps, dur, n)
	b := schedule(stats.NewRNG(7), qps, dur, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if c := schedule(stats.NewRNG(8), qps, dur, n); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Poisson arrivals: about qps*dur of them, due in order inside dur.
	want := qps * dur.Seconds()
	if got := float64(len(a)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("%v arrivals, want about %v", got, want)
	}
	for i, r := range a {
		if r.due < 0 || r.due >= dur || (i > 0 && r.due < a[i-1].due) {
			t.Fatalf("arrival %d due at %v: not in order inside %v", i, r.due, dur)
		}
		for j, k := range r.known {
			if !k && r.obs[j] != 0 {
				t.Fatalf("arrival %d carries a value for unknown entry %d", i, j)
			}
		}
	}
}

func TestMaxSustained(t *testing.T) {
	good := segVerdict{p99: time.Millisecond}
	slow := segVerdict{p99: latencyLimit + 1}
	failing := segVerdict{p99: time.Millisecond, failFrac: 2 * failLimit}
	growing := segVerdict{p99: time.Millisecond, growing: true}
	rung := func(qps float64, segs ...segVerdict) rungVerdict { return rungVerdict{qps: qps, segs: segs} }
	ok := func(qps float64) rungVerdict { return rung(qps, good, good, good) }
	cases := []struct {
		name string
		vs   []rungVerdict
		want float64
	}{
		{"all sustained", []rungVerdict{ok(1000), ok(2000), ok(4000)}, 4000},
		{"latency limit", []rungVerdict{ok(1000), ok(2000), rung(4000, slow, slow, good)}, 2000},
		{"failures and sheds", []rungVerdict{ok(1000), rung(2000, failing, failing, failing), ok(4000)}, 1000},
		{"growing backlog", []rungVerdict{ok(1000), ok(2000), rung(4000, growing, good, growing)}, 2000},
		{"a minority of bad segments is noise", []rungVerdict{ok(1000), rung(2000, slow, good, good)}, 2000},
		{"half is not a majority", []rungVerdict{ok(1000), rung(2000, slow, good)}, 1000},
		{"pass above a failure does not count", []rungVerdict{ok(1000), rung(2000, slow, slow, slow), ok(4000)}, 1000},
		{"lowest fails", []rungVerdict{rung(1000, slow), ok(2000)}, 0},
		{"limit is inclusive", []rungVerdict{rung(1000, segVerdict{p99: latencyLimit, failFrac: failLimit})}, 1000},
	}
	for _, c := range cases {
		if got := maxSustained(c.vs); got != c.want {
			t.Errorf("%s: maxSustained = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBacklogGrows(t *testing.T) {
	const dur = time.Second
	samples := func(f func(frac float64) int64) []backlogSample {
		var out []backlogSample
		for i := 0; i < 100; i++ {
			at := dur * time.Duration(i) / 100
			out = append(out, backlogSample{at, f(float64(i) / 100)})
		}
		return out
	}
	if backlogGrows(samples(func(float64) int64 { return 3 }), dur, 8) {
		t.Error("a flat backlog was called growing")
	}
	if backlogGrows(samples(func(f float64) int64 { return int64(20 * f) }), dur, 32) {
		t.Error("a rise within the slack was called growing")
	}
	if !backlogGrows(samples(func(f float64) int64 { return int64(400 * f) }), dur, 32) {
		t.Error("a backlog climbing through the rung was not called growing")
	}
	if backlogGrows(nil, dur, 0) {
		t.Error("no samples was called growing")
	}
}
