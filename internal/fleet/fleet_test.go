package fleet

import (
	"fmt"
	"testing"

	"bolt/internal/cluster"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// buildFleet populates a fresh cluster of n servers with ~3 VMs per server,
// placed deterministically, and returns an engine over it. Every call with
// the same arguments builds an identical world.
func buildFleet(seed uint64, n int) *Engine {
	rng := stats.NewRNG(seed)
	cl := cluster.New(n, sim.ServerConfig{}, cluster.LeastLoaded{})
	mk := []func(*stats.RNG, int) workload.Spec{
		workload.Memcached, workload.Hadoop, workload.Spark,
	}
	for i, s := range cl.Servers {
		for j := 0; j < 3; j++ {
			spec := mk[(i+j)%len(mk)](rng.Split(), i+j)
			app := workload.NewApp(spec, workload.Constant{Level: 0.9}, rng.Uint64())
			vm := &sim.VM{ID: fmt.Sprintf("vm-%d-%d", i, j), VCPUs: 1 + (i+j)%3, App: app}
			if err := s.Place(vm); err != nil {
				panic(err)
			}
		}
	}
	return NewEngine(cl, rng.Split())
}

// probeTick is a representative tick body: it consumes per-server
// randomness, reads the observation plane, and emits data-dependent events
// — everything a real fleet experiment does per server per tick. It is
// written allocation-free so the steady-state allocation test isolates the
// engine's own cost.
func probeTick(w *World) {
	r := sim.Resource(w.RNG.Intn(sim.NumResources))
	p := w.Server.ObservedPressure(nil, r, w.Tick)
	if p > 55 || w.RNG.Bool(0.05) {
		w.Emit(int(r), "", p)
	}
}

// runFleet ticks a freshly built world for `ticks` ticks at the given
// worker count and returns the concatenated event stream and per-tick
// stats.
func runFleet(t *testing.T, workers, servers, ticks int) ([]Event, []Stats) {
	t.Helper()
	e := buildFleet(42, servers)
	e.Workers = workers
	var events []Event
	var sts []Stats
	for tick := 0; tick < ticks; tick++ {
		ev, st := e.Tick(sim.Tick(tick), probeTick)
		events = append(events, ev...) // Tick's slice is reused; copy out
		sts = append(sts, st)
	}
	return events, sts
}

// TestTickParityAcrossShardWorkers is the fleet determinism contract: the
// full event stream and every fleet Stats field are ==-identical between
// the serial single-worker reference and every sharded width, including
// widths that do not divide the server count.
func TestTickParityAcrossShardWorkers(t *testing.T) {
	const servers, ticks = 61, 12 // prime server count: uneven blocks at every width
	refEvents, refStats := runFleet(t, 1, servers, ticks)
	if len(refEvents) == 0 {
		t.Fatal("reference run emitted no events; the parity check would be vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		events, sts := runFleet(t, workers, servers, ticks)
		if len(events) != len(refEvents) {
			t.Fatalf("workers=%d emitted %d events, serial reference %d", workers, len(events), len(refEvents))
		}
		for i := range events {
			if events[i] != refEvents[i] {
				t.Fatalf("workers=%d event %d = %+v, serial reference %+v", workers, i, events[i], refEvents[i])
			}
		}
		for i := range sts {
			if sts[i] != refStats[i] {
				t.Fatalf("workers=%d tick %d stats = %+v, serial reference %+v", workers, i, sts[i], refStats[i])
			}
		}
	}
}

// TestTickEventsArriveInServerIDOrder pins the barrier's merge rule.
func TestTickEventsArriveInServerIDOrder(t *testing.T) {
	e := buildFleet(7, 33)
	e.Workers = 4
	ev, _ := e.Tick(0, func(w *World) {
		w.Emit(0, "", float64(w.Index))
		w.Emit(1, "", float64(w.Index))
	})
	if len(ev) != 2*33 {
		t.Fatalf("got %d events, want %d", len(ev), 2*33)
	}
	for i, x := range ev {
		if x.Server != i/2 || x.Kind != i%2 {
			t.Fatalf("event %d is server %d kind %d, want server %d kind %d", i, x.Server, x.Kind, i/2, i%2)
		}
	}
}

// TestTickStats checks the occupancy reduction against the world the test
// itself built: 3 VMs per server, sized 1+(i+j)%3 vCPUs.
func TestTickStats(t *testing.T) {
	const n = 10
	e := buildFleet(42, n)
	e.Workers = 3
	_, st := e.Tick(0, nil)
	if st.Servers != n {
		t.Fatalf("Servers = %d, want %d", st.Servers, n)
	}
	if st.VMs != 3*n {
		t.Fatalf("VMs = %d, want %d", st.VMs, 3*n)
	}
	wantFree := 0
	for i := 0; i < n; i++ {
		used := 0
		for j := 0; j < 3; j++ {
			used += 1 + (i+j)%3
		}
		wantFree += 16 - used
	}
	if st.FreeVCPUs != wantFree {
		t.Fatalf("FreeVCPUs = %d, want %d", st.FreeVCPUs, wantFree)
	}
	if st.MeanCPU <= 0 || st.MeanCPU > 100 {
		t.Fatalf("MeanCPU = %g, want in (0, 100]", st.MeanCPU)
	}
}

// TestTickSteadyStateAllocs: after the first tick warms the buffers, a
// fleet tick's allocation count is a small constant — the tick-body
// closure and the per-shard World — and does not scale with the number of
// servers. A per-server allocation creeping into the loop is the
// regression this guards against: at 4096 servers it would turn one tick
// into thousands of allocations.
func TestTickSteadyStateAllocs(t *testing.T) {
	perTick := func(servers int) float64 {
		e := buildFleet(42, servers)
		e.Workers = 1 // inline path isolates engine allocations from pool goroutines
		e.Tick(0, probeTick)
		e.Tick(1, probeTick)
		return testing.AllocsPerRun(50, func() {
			e.Tick(2, probeTick) // constant tick: demand memos stay warm
		})
	}
	small, large := perTick(32), perTick(256)
	if small > 4 {
		t.Fatalf("steady-state Tick allocates %.1f times per run, want a small constant (≤4)", small)
	}
	if large > small {
		t.Fatalf("Tick allocations scale with fleet size: %.1f at 32 servers, %.1f at 256", small, large)
	}
}

// TestTickPanicsWhenClusterGrows pins the fixed-fleet contract.
func TestTickPanicsWhenClusterGrows(t *testing.T) {
	e := buildFleet(42, 4)
	e.cl.Servers = append(e.cl.Servers, sim.NewServer("late", sim.ServerConfig{}))
	defer func() {
		if recover() == nil {
			t.Fatal("Tick over a grown cluster did not panic")
		}
	}()
	e.Tick(0, nil)
}
