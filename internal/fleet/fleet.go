// Package fleet advances a whole simulated datacenter — thousands of
// cluster servers, tens of thousands of VMs — one tick at a time, with the
// per-server work of each tick sharded across a worker pool and the
// results merged at a deterministic tick barrier.
//
// The parallelism is safe because servers are independent within a tick:
// every observable a probe or monitor reads at tick t (observed pressure,
// slowdown, utilisation) is a function of one server's own VMs, served from
// that server's per-(Server, Tick) demand snapshot. Cross-server mutation —
// scheduling, migration, launch waves — happens *between* ticks, on the
// caller's goroutine, exactly like placement changes between episode steps.
//
// Determinism follows the repository's RNG-splitting and ordered-merge
// discipline (DESIGN.md "Fleet tick barrier"):
//
//   - the engine pre-splits one stats.RNG stream per server, in server-id
//     order, at construction; per-server tick bodies draw only from their
//     own stream, so the values consumed are independent of how servers
//     land on workers;
//   - servers are partitioned into contiguous shards whose boundaries are a
//     pure function of (server count, worker count), one worker per shard;
//   - each server writes events into its own index-addressed buffer, and
//     the tick barrier merges buffers in server-id order — so the emitted
//     event sequence, and every float reduced across servers (reduced
//     serially at the barrier, never in the workers), is byte-identical at
//     every -shardworkers level.
package fleet

import (
	"fmt"
	"runtime"

	"bolt/internal/cluster"
	"bolt/internal/defence"
	"bolt/internal/par"
	"bolt/internal/sim"
	"bolt/internal/stats"
)

// Event is one observation emitted by per-server tick work: a probe
// crossing its detection threshold, a monitor tripping, a co-residency
// confirmation. Kind is caller-defined; the engine only orders events.
type Event struct {
	Server int     // index of the emitting server (stamped by Emit)
	VM     string  // subject VM id, if any
	Kind   int     // caller-defined discriminator
	Value  float64 // caller-defined payload
}

// MonitorAlarm is the Kind of events the engine itself emits when a
// server's attached defence monitor fires (see SetMonitor). It is negative
// so caller-defined kinds (conventionally non-negative) never collide.
const MonitorAlarm = -1

// World is the view a tick body gets of one server: the server itself, the
// tick being advanced, and the server's own pre-split RNG stream. A body
// must touch only this server and its VMs and draw randomness only from
// RNG — the two rules that make shards schedule-independent.
type World struct {
	Index  int
	Server *sim.Server
	Tick   sim.Tick
	RNG    *stats.RNG

	events *[]Event
}

// Emit records an event against this server. Events surface at the tick
// barrier in server-id order (and, within one server, emission order).
// The *World a tick body receives is reused for the next server on the
// shard; bodies must not retain it past their return.
func (w *World) Emit(kind int, vm string, value float64) {
	*w.events = append(*w.events, Event{Server: w.Index, VM: vm, Kind: kind, Value: value})
}

// TickFunc is the per-server work of one fleet tick.
type TickFunc func(w *World)

// Stats is the fleet-wide view the barrier reduces after every tick. The
// float fields are folded serially in server-id order, so they are
// bit-identical at every worker count.
type Stats struct {
	Servers   int
	VMs       int     // VMs placed across the fleet
	FreeVCPUs int     // unallocated hyperthreads across the fleet
	MeanCPU   float64 // mean per-server CPU utilisation, percent
}

// Engine shards one cluster's servers across a worker pool and advances
// them tick by tick. The fleet is fixed at construction: the per-server
// RNG streams are split once, in server-id order, and adding servers later
// would misalign them. VM placement and migration remain free to happen
// between ticks.
type Engine struct {
	// Workers is how many shards advance concurrently within one tick
	// (NewEngine sets GOMAXPROCS; <= 1 ticks inline). It is a pure
	// throughput knob: shard boundaries affect only which goroutine runs a
	// server's tick body, never what that body computes or emits. Set it
	// between ticks, never during one.
	Workers int

	cl   *cluster.Cluster
	rngs []*stats.RNG

	// monitors[i], when non-nil, is server i's defence monitor: sampled
	// once per tick inside the server's own shard (after the tick body),
	// with alarm edges surfacing as MonitorAlarm events at the barrier.
	// Like all per-server state, a monitor is touched only by the shard
	// that owns its server, so sharded ticking stays deterministic.
	monitors []*defence.Monitor

	// Per-server slots written inside a tick, merged at the barrier.
	// Reused across ticks so a steady-state tick allocates nothing.
	events [][]Event
	cpu    []float64
	vms    []int
	free   []int
	merged []Event
}

// NewEngine builds an engine over the cluster's current servers, deriving
// one independent RNG stream per server from rng (advancing it once per
// server, in server-id order — the PR 6 pre-split discipline).
func NewEngine(cl *cluster.Cluster, rng *stats.RNG) *Engine {
	n := len(cl.Servers)
	return &Engine{
		Workers: runtime.GOMAXPROCS(0),
		cl:      cl,
		rngs:    rng.SplitN(n),
		events:  make([][]Event, n),
		cpu:     make([]float64, n),
		vms:     make([]int, n),
		free:    make([]int, n),
	}
}

// Servers returns the fleet size the engine was built over.
func (e *Engine) Servers() int { return len(e.rngs) }

// RNG returns server i's pre-split stream, for callers that need to seed
// per-server state (a resident adversary's probe) from the same stream its
// tick bodies will draw from.
func (e *Engine) RNG(i int) *stats.RNG { return e.rngs[i] }

// SetMonitor attaches a defence monitor to server i (nil detaches). The
// engine feeds it the server's aggregate usage every tick; the tick on
// which its detector first fires is reported once as a MonitorAlarm event
// (Value carries the tick), after which the defence layer typically acts
// and calls Monitor.Reset to re-arm it.
func (e *Engine) SetMonitor(i int, m *defence.Monitor) {
	if e.monitors == nil {
		e.monitors = make([]*defence.Monitor, len(e.rngs))
	}
	e.monitors[i] = m
}

// Monitor returns server i's attached monitor, or nil.
func (e *Engine) Monitor(i int) *defence.Monitor {
	if e.monitors == nil {
		return nil
	}
	return e.monitors[i]
}

// Tick advances every server through tick t: each shard's servers run fn
// (which may be nil) and have their occupancy and utilisation sampled, all
// shards concurrently; then the barrier merges per-server events in
// server-id order and reduces fleet Stats serially. The returned event
// slice is owned by the engine and valid until the next Tick.
func (e *Engine) Tick(t sim.Tick, fn TickFunc) ([]Event, Stats) {
	n := len(e.cl.Servers)
	if n != len(e.rngs) {
		panic(fmt.Sprintf("fleet: cluster grew from %d to %d servers after NewEngine; per-server RNG streams are fixed at construction", len(e.rngs), n))
	}
	par.FanOutBlocks(n, e.Workers,
		func(lo int) string { return fmt.Sprintf("fleet shard at server %d", lo) },
		func(lo, hi int) {
			// One World per shard per tick, re-pointed at each server in
			// turn: fn receives &w, which would otherwise heap-allocate a
			// World per server per tick. Bodies must not retain the pointer
			// past their return.
			var w World
			for i := lo; i < hi; i++ {
				s := e.cl.Servers[i]
				e.events[i] = e.events[i][:0]
				if fn != nil {
					w = World{Index: i, Server: s, Tick: t, RNG: e.rngs[i], events: &e.events[i]}
					fn(&w)
				}
				// The defence monitor samples after the body, appending its
				// alarm edge after the body's own events for this server —
				// a fixed order, so the merged stream stays deterministic.
				if e.monitors != nil {
					if m := e.monitors[i]; m.Sample(s, t) {
						e.events[i] = append(e.events[i], Event{Server: i, Kind: MonitorAlarm, Value: float64(t)})
					}
				}
				// Sampling utilisation last means it rides the observation
				// snapshot the body's queries already built.
				e.cpu[i] = s.CPUUtilization(t)
				e.vms[i] = s.VMCount()
				e.free[i] = s.FreeVCPUs()
			}
		})

	// Tick barrier: fold per-server samples serially in server-id order so
	// the float sums see one fixed operation sequence, and splice the
	// per-server event buffers in the same order.
	var st Stats
	st.Servers = n
	cpuSum := 0.0
	total := 0
	for i := 0; i < n; i++ {
		cpuSum += e.cpu[i]
		st.VMs += e.vms[i]
		st.FreeVCPUs += e.free[i]
		total += len(e.events[i])
	}
	if n > 0 {
		st.MeanCPU = cpuSum / float64(n)
	}
	if cap(e.merged) < total {
		e.merged = make([]Event, 0, total)
	}
	e.merged = e.merged[:0]
	for i := 0; i < n; i++ {
		e.merged = append(e.merged, e.events[i]...)
	}
	return e.merged, st
}
