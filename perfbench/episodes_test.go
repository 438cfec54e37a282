package main

import (
	"runtime"
	"testing"

	"bolt/internal/core"
	"bolt/internal/workload"
)

// TestEpisodeFanOutMatchesSerial runs one round of episodes from two
// goroutines, untraced and traced, and compares every outcome with the same
// episode run serially. Run it with -race to check that the benchmark's own
// fan-out shares no state between goroutines.
func TestEpisodeFanOutMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const seed = 3
	det := core.Train(workload.TrainingSpecs(seed), core.Config{})
	serial := buildHosts(seed)
	if len(serial) < 2 {
		t.Fatalf("%d hosts; the fan-out needs at least 2", len(serial))
	}
	fanned := runRound(det, buildHosts(seed), nil)
	traced := runRound(det, buildHosts(seed), newTraceSet())
	for i := range serial {
		want := detect(det, &serial[i])
		if want.panic != "" {
			t.Fatalf("host %d panicked: %s", i, want.panic)
		}
		if fanned.outcomes[i] != want {
			t.Errorf("host %d: fanned-out %+v, serial %+v", i, fanned.outcomes[i], want)
		}
		if traced.outcomes[i] != want {
			t.Errorf("host %d: traced %+v, serial %+v", i, traced.outcomes[i], want)
		}
	}
}
