// Package serve promotes detection from batch experiments to a long-running
// service. A Server answers profile-only detection queries (an observed
// victim pressure vector plus its known mask) from an immutable trained
// detector snapshot, batching concurrent requests into DetectBatch calls:
// each request is completed on its own, and the requests of a batch that
// share a known mask share one ranking prep.
//
// Three contracts define the serving plane (see DESIGN.md "Serving plane"):
//
//   - RCU snapshots. The trained detector is held behind an
//     atomic.Pointer and replaced wholesale by Swap. core.TrainCached's
//     immutability-after-Train guarantee makes the read side lock-free:
//     a worker loads the pointer once per batch flush, and in-flight
//     batches keep answering from the snapshot they loaded while a
//     background retrain installs the next one. Nothing is ever mutated
//     in place, so there is no quiescence protocol to get wrong.
//
//   - Bounded queueing with load shedding. Requests enter a fixed-depth
//     queue; when it is full, Detect fails fast with ErrBusy instead of
//     queueing unboundedly. Overload degrades throughput, never memory.
//
//   - Bit-exactness. A served answer is bit-identical to the solo
//     core.Detector.DetectProfile path at every worker count, batch size,
//     and linger setting: batches group requests by identical known mask
//     and answer each group through DetectProfileBatch, whose per-row
//     bit-exactness is pinned at the mining layer. The serve parity tests
//     re-pin it at the service boundary.
//
// The request path draws no randomness. The only RNG in the package feeds
// the optional fault plane (Config.Fault), which perturbs live traffic the
// way PR 5's plane perturbs simulated probes — and a disabled fault config
// injects nothing and costs nothing.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bolt/internal/core"
	"bolt/internal/fault"
	"bolt/internal/stats"
)

// Config tunes a Server. The zero value serves correctly: one worker,
// batches up to 64, queue depth 4×batch, no linger, no fault injection.
type Config struct {
	// Workers is the number of batch workers pulling from the shared
	// queue. Each worker forms and answers one batch at a time, so this
	// bounds the number of concurrent DetectBatch passes. 0 means 1.
	Workers int
	// MaxBatch is the most requests a worker folds into one flush. A mask
	// group shares its ranking prep across the batch, so larger batches
	// trade a little latency for throughput. 0 means 64.
	MaxBatch int
	// QueueDepth bounds the request queue; a full queue sheds load with
	// ErrBusy. 0 means 4×MaxBatch.
	QueueDepth int
	// Linger is how long a worker holding a non-full batch waits for
	// stragglers before flushing. 0 flushes as soon as the queue is
	// momentarily empty (greedy drain): lowest latency, and batches still
	// form naturally whenever requests outpace workers.
	Linger time.Duration
	// Fault, when enabled, injects the request-level fault classes
	// (dropout, corruption) into live traffic before detection, drawing
	// from per-worker streams split from FaultSeed. Responses report what
	// was injected; the confidence score degrades exactly as it does under
	// the probe-side plane.
	Fault fault.Config
	// FaultSeed seeds the fault plane's RNG streams.
	FaultSeed uint64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	return c
}

// Sentinel errors of the request path.
var (
	// ErrBusy is the load-shedding error: the queue is full and the
	// request was dropped without being enqueued. Retryable.
	ErrBusy = errors.New("serve: queue full, request shed")
	// ErrClosed reports a request submitted after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrBadRequest wraps request-validation failures (length mismatch,
	// non-finite or out-of-range observed values).
	ErrBadRequest = errors.New("serve: bad request")
)

// Response is one answered detection query.
type Response struct {
	// ProfileDetection is the detector's answer, bit-identical to the solo
	// DetectProfile path (after any fault injection).
	core.ProfileDetection
	// Snapshot is the version of the detector snapshot that answered; it
	// increases by one per Swap, starting at 1 for the construction-time
	// detector.
	Snapshot uint64
	// Batch is how many requests shared this answer's DetectBatch call
	// (the mask group's size, not the whole flush).
	Batch int
	// Dropped and Corrupted count the fault classes injected into this
	// request's profile before detection (always 0 with faults disabled).
	Dropped, Corrupted int
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Served    uint64 // requests answered
	Shed      uint64 // requests dropped with ErrBusy
	Rejected  uint64 // requests failing validation
	Batches   uint64 // DetectBatch calls (one per mask group)
	MaxBatch  uint64 // largest DetectBatch call observed
	Dropped   uint64 // fault plane: entries dropped from live requests
	Corrupted uint64 // fault plane: entries corrupted in live requests
	Swaps     uint64 // snapshot swaps since construction
}

// snapshot is one immutable detector generation. Workers load it once per
// flush; Swap installs a successor without disturbing loads in flight.
type snapshot struct {
	det     *core.Detector
	version uint64
	n       int // resource count, cached for request validation
}

// call is one in-flight request. Calls are pooled: the done channel and the
// observed/known buffers are reused across requests, so the steady-state
// submit path allocates nothing.
type call struct {
	observed []float64
	known    []bool
	resp     Response
	err      error
	done     chan struct{} // buffered 1; worker sends exactly once per cycle
}

// Server is the long-running detection service. Construct with New, submit
// with Detect (safe for any number of goroutines), retire with Close.
type Server struct {
	cfg   Config
	snap  atomic.Pointer[snapshot]
	queue chan *call
	pool  sync.Pool

	// mu guards closed and orders Detect's queue sends before Close's
	// close(queue); workers hold neither.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	served, shed, rejected   atomic.Uint64
	batches, maxBatch, swaps atomic.Uint64
	dropped, corrupted       atomic.Uint64
}

// New builds and starts a Server answering from det. The detector must
// already be trained (it is immutable, per the core.Detector contract);
// train on another goroutine and Swap to replace it later.
func New(det *core.Detector, cfg Config) *Server {
	s := newServer(det, cfg)
	s.start()
	return s
}

// newServer builds the server without starting its workers; split from New
// so white-box tests can exercise the submit path against a quiescent
// queue.
func newServer(det *core.Detector, cfg Config) *Server {
	if det == nil {
		panic("serve: New(nil detector)")
	}
	cfg = cfg.withDefaults()
	n := det.Rec.ResourceCount()
	s := &Server{
		cfg:   cfg,
		queue: make(chan *call, cfg.QueueDepth),
	}
	s.snap.Store(&snapshot{det: det, version: 1, n: n})
	s.pool.New = func() any {
		return &call{
			observed: make([]float64, n),
			known:    make([]bool, n),
			done:     make(chan struct{}, 1),
		}
	}
	return s
}

// start launches the batch workers. Per-worker fault planes are split in
// worker order: a Plane is single-owner (like an adversary's), and giving
// each worker its own stream keeps injection decisions independent of which
// worker drains which request.
func (s *Server) start() {
	rng := stats.NewRNG(s.cfg.FaultSeed)
	planes := make([]*fault.Plane, s.cfg.Workers)
	for i := range planes {
		planes[i] = fault.New(s.cfg.Fault, rng.Split())
	}
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker(planes[i])
	}
}

// Snapshot returns the current detector and its version. The detector is
// shared and immutable; treat it as read-only.
func (s *Server) Snapshot() (*core.Detector, uint64) {
	sn := s.snap.Load()
	return sn.det, sn.version
}

// Swap installs det as the new answering snapshot, RCU-style: requests
// batched after the swap see the new detector, batches already formed keep
// the snapshot they loaded, and nothing blocks. It returns the new
// snapshot's version. The new detector must expect the same resource count
// as the current one — requests are validated against the snapshot at
// submit time, so a width change would invalidate queued requests.
func (s *Server) Swap(det *core.Detector) uint64 {
	if det == nil {
		panic("serve: Swap(nil detector)")
	}
	n := det.Rec.ResourceCount()
	for {
		cur := s.snap.Load()
		if n != cur.n {
			panic(fmt.Sprintf("serve: Swap detector expects %d resources, serving %d", n, cur.n))
		}
		next := &snapshot{det: det, version: cur.version + 1, n: n}
		if s.snap.CompareAndSwap(cur, next) {
			s.swaps.Add(1)
			return next.version
		}
	}
}

// Detect submits one query and blocks until it is answered or shed. The
// request slices are copied at submit time: the server never retains or
// mutates caller memory, and the returned Response owns all its data.
//
// Errors: ErrBusy when the queue is full (the request was not enqueued;
// retry or back off), ErrClosed after Close, and ErrBadRequest (wrapped,
// with detail) for malformed requests — mismatched lengths against the
// current snapshot, or a known entry that is NaN, infinite, or outside the
// [0, 100] pressure range.
func (s *Server) Detect(observed []float64, known []bool) (Response, error) {
	sn := s.snap.Load()
	if len(observed) != sn.n || len(known) != sn.n {
		s.rejected.Add(1)
		return Response{}, fmt.Errorf("%w: got %d observed / %d known entries, want %d",
			ErrBadRequest, len(observed), len(known), sn.n)
	}
	for j, k := range known {
		if !k {
			continue
		}
		if v := observed[j]; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 100 {
			s.rejected.Add(1)
			return Response{}, fmt.Errorf("%w: observed[%d] = %v outside the [0, 100] pressure range",
				ErrBadRequest, j, v)
		}
	}

	c := s.pool.Get().(*call)
	copy(c.observed, observed)
	copy(c.known, known)
	// Pooled calls carry the previous cycle's response; the fault counters
	// are read back at flush time, so they must start from zero.
	c.resp.Dropped, c.resp.Corrupted = 0, 0

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.pool.Put(c)
		return Response{}, ErrClosed
	}
	select {
	case s.queue <- c:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.pool.Put(c)
		s.shed.Add(1)
		return Response{}, ErrBusy
	}

	<-c.done
	resp, err := c.resp, c.err
	s.pool.Put(c)
	return resp, err
}

// Close stops accepting requests, drains and answers everything already
// queued, and waits for the workers to exit. Idempotent; concurrent Detect
// calls either complete normally or return ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns a point-in-time snapshot of the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Served:    s.served.Load(),
		Shed:      s.shed.Load(),
		Rejected:  s.rejected.Load(),
		Batches:   s.batches.Load(),
		MaxBatch:  s.maxBatch.Load(),
		Dropped:   s.dropped.Load(),
		Corrupted: s.corrupted.Load(),
		Swaps:     s.swaps.Load(),
	}
}

// worker is one batch loop: block for the first request, gather up to
// MaxBatch (lingering if configured), then flush. Exits when the queue is
// closed and drained.
func (s *Server) worker(plane *fault.Plane) {
	defer s.wg.Done()
	batch := make([]*call, 0, s.cfg.MaxBatch)
	members := make([]*call, 0, s.cfg.MaxBatch)
	obs := make([][]float64, 0, s.cfg.MaxBatch)
	var timer *time.Timer
	if s.cfg.Linger > 0 {
		timer = time.NewTimer(s.cfg.Linger)
		if !timer.Stop() {
			<-timer.C
		}
	}
	for {
		c, ok := <-s.queue
		if !ok {
			return
		}
		batch = append(batch[:0], c)
		open := s.gather(&batch, timer)
		s.flush(batch, plane, &members, &obs)
		if !open {
			return
		}
	}
}

// gather fills batch up to MaxBatch. With a timer (Linger > 0) it waits up
// to Linger for stragglers; without one it drains only what is already
// queued. Returns false once the queue is closed.
func (s *Server) gather(batch *[]*call, timer *time.Timer) bool {
	if timer == nil {
		for len(*batch) < s.cfg.MaxBatch {
			select {
			case c, ok := <-s.queue:
				if !ok {
					return false
				}
				*batch = append(*batch, c)
			default:
				return true
			}
		}
		return true
	}
	timer.Reset(s.cfg.Linger)
	defer func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}()
	for len(*batch) < s.cfg.MaxBatch {
		select {
		case c, ok := <-s.queue:
			if !ok {
				return false
			}
			*batch = append(*batch, c)
		case <-timer.C:
			return true
		}
	}
	return true
}

// flush answers one gathered batch: load the snapshot (the RCU read), run
// the fault plane over each request, then group requests by identical known
// mask — DetectBatch requires a shared mask — and answer each group in one
// DetectBatch call. Groups form in arrival order and members keep arrival order
// within a group, so the flush is deterministic in its input sequence.
func (s *Server) flush(batch []*call, plane *fault.Plane, members *[]*call, obs *[][]float64) {
	sn := s.snap.Load()
	if plane.Enabled() {
		for _, c := range batch {
			d, k := plane.FaultProfile(c.observed, c.known)
			c.resp.Dropped, c.resp.Corrupted = d, k
			if d > 0 {
				s.dropped.Add(uint64(d))
			}
			if k > 0 {
				s.corrupted.Add(uint64(k))
			}
		}
	}
	for lo := 0; lo < len(batch); lo++ {
		head := batch[lo]
		if head == nil {
			continue // already answered as a member of an earlier group
		}
		mask := head.known
		ms := append((*members)[:0], head)
		ob := append((*obs)[:0], head.observed)
		for i := lo + 1; i < len(batch); i++ {
			c := batch[i]
			if c == nil || !maskEqual(mask, c.known) {
				continue
			}
			ms = append(ms, c)
			ob = append(ob, c.observed)
			batch[i] = nil
		}
		pds := sn.det.DetectProfileBatch(ob, mask)
		s.batches.Add(1)
		s.served.Add(uint64(len(ms)))
		s.noteBatch(uint64(len(ms)))
		for k, c := range ms {
			dropped, corrupted := c.resp.Dropped, c.resp.Corrupted
			c.resp = Response{
				ProfileDetection: pds[k],
				Snapshot:         sn.version,
				Batch:            len(ms),
				Dropped:          dropped,
				Corrupted:        corrupted,
			}
			c.err = nil
			c.done <- struct{}{}
		}
		*members, *obs = ms, ob
	}
}

// noteBatch raises the max-batch watermark to b if it is a new high.
func (s *Server) noteBatch(b uint64) {
	for {
		cur := s.maxBatch.Load()
		if b <= cur || s.maxBatch.CompareAndSwap(cur, b) {
			return
		}
	}
}

func maskEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
