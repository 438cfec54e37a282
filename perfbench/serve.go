package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bolt/internal/core"
	"bolt/internal/serve"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// rung is one offered rate of the open-loop ladder.
type rung struct {
	name string
	qps  float64
}

// ladder is the fixed ladder of offered rates, lowest first. lowRung gives
// the end-to-end latency, where host noise is least amplified by queueing;
// highRung shows the queueing.
var ladder = []rung{
	{"r1000", 1000}, {"r2000", 2000}, {"r3000", 3000}, {"r4000", 4000},
}

const (
	lowRung  = "r1000"
	highRung = "r4000"
	// ladderClimbs is how many times one run climbs the ladder.
	ladderClimbs = 6
	// burstRequests is the size of the burst that follows every segment,
	// which measures the server's throughput with its queue kept full.
	burstRequests = 4000
	// serveMaxBatch is the server's MaxBatch, and queueDepth its default
	// QueueDepth, 4×MaxBatch: the most requests the generator keeps
	// outstanding (see runRung).
	serveMaxBatch = 64
	queueDepth    = 4 * serveMaxBatch
)

// Serving limits: a segment is sustained when its p99 latency from the due
// time is at most latencyLimit, at most failLimit of its requests fail
// (sheds included), and its backlog does not grow; a rung is sustained when
// more than half of its segments are. The limit sits above the
// multi-millisecond stalls of a shared virtual machine, so a rung fails when
// the server falls behind, not when the host pauses.
const (
	latencyLimit = 50 * time.Millisecond
	failLimit    = 0.001
	// prSetTimerSlack is PR_SET_TIMERSLACK from linux/prctl.h.
	prSetTimerSlack = 29
	// swapEvery is the cadence of detector swaps during the timed phase.
	swapEvery = 20 * time.Millisecond
)

// request is one precomputed query: when it is due, relative to the start
// of its rung, and its payload.
type request struct {
	due   time.Duration
	mask  int // index into requestMasks
	obs   []float64
	known []bool
}

const numMasks = 4

// requestMasks are the four observation shapes boltload offers: the
// LLC/MemBW/NetBW probe mask, two partial variants and a full observation.
func requestMasks(n int) [][]bool {
	masks := make([][]bool, numMasks)
	for i := range masks {
		masks[i] = make([]bool, n)
	}
	masks[0][3], masks[0][5], masks[0][7] = true, true, true
	masks[1][3], masks[1][5] = true, true
	masks[2][6], masks[2][7], masks[2][9] = true, true, true
	for j := range masks[3] {
		masks[3][j] = true
	}
	return masks
}

// schedule draws a rung's Poisson arrivals and payloads from rng: the same
// seed gives the same requests at the same offsets.
func schedule(rng *stats.RNG, qps float64, dur time.Duration, n int) []request {
	masks := requestMasks(n)
	var out []request
	due := time.Duration(0)
	for {
		due += time.Duration(rng.Exp(1/qps) * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, payload(rng, masks, due))
	}
}

// burst draws count payloads from rng, all due at once.
func burst(rng *stats.RNG, count, n int) []request {
	masks := requestMasks(n)
	out := make([]request, count)
	for i := range out {
		out[i] = payload(rng, masks, 0)
	}
	return out
}

// payload draws one request's mask and observed values.
func payload(rng *stats.RNG, masks [][]bool, due time.Duration) request {
	m := rng.Intn(len(masks))
	obs := make([]float64, len(masks[m]))
	for j := range obs {
		if masks[m][j] {
			obs[j] = rng.Range(0, 100)
		}
	}
	return request{due: due, mask: m, obs: obs, known: masks[m]}
}

// reply is what became of one request.
type reply struct {
	submit, done time.Time
	snapshot     uint64
	digest       uint64
	err          error
}

// rungResult is one segment of a rung: its requests and what became of them.
type rungResult struct {
	rung
	reqs    []request
	replies []reply
	start   time.Time
	// backlog samples the count of requests dispatched but not answered at
	// each generator wake-up, with the offset of the sample.
	backlog []backlogSample
}

type backlogSample struct {
	at          time.Duration
	outstanding int64
}

// runRung offers reqs to srv on schedule. The generator waits until the
// next due time and then dispatches every request that is due, each on its
// own goroutine, so a late wake-up delays requests but never thins them.
// It keeps at most queueDepth requests outstanding: the server's queue
// then never overflows, so no request is shed, and a request that waits
// for a free slot has the wait in its latency from the due time. Each
// call's goroutine is waited for before runRung returns.
func runRung(srv *serve.Server, r rung, reqs []request) rungResult {
	res := rungResult{rung: r, reqs: reqs, replies: make([]reply, len(reqs))}
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	slots := make(chan struct{}, queueDepth)
	res.start = time.Now()
	for i := 0; i < len(reqs); {
		now := time.Since(res.start)
		if wait := reqs[i].due - now; wait > 0 {
			// time.Sleep rounds short waits up to the runtime poller's
			// millisecond; nanosleep overshoots by the thread's timer
			// slack (see runServe). An interrupted sleep just wakes early.
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil)
			continue
		}
		res.backlog = append(res.backlog, backlogSample{now, outstanding.Load()})
		for ; i < len(reqs) && reqs[i].due <= now; i++ {
			slots <- struct{}{}
			outstanding.Add(1)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				send(srv, reqs[i], &res.replies[i])
				outstanding.Add(-1)
				<-slots
			}(i)
		}
	}
	wg.Wait()
	return res
}

// send submits rq to srv and records in rp what became of it.
func send(srv *serve.Server, rq request, rp *reply) {
	rp.submit = time.Now()
	resp, err := srv.Detect(rq.obs, rq.known)
	rp.done = time.Now()
	rp.err = err
	if err == nil {
		rp.snapshot = resp.Snapshot
		rp.digest = digest(resp.ProfileDetection)
	}
}

// runBurst offers reqs to srv from queueDepth client goroutines, each of
// which sends its next request as soon as its last is answered: the
// server's queue stays full but never overflows.
func runBurst(srv *serve.Server, reqs []request) rungResult {
	res := rungResult{rung: rung{name: "burst"}, reqs: reqs, replies: make([]reply, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	res.start = time.Now()
	for w := 0; w < queueDepth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				send(srv, reqs[i], &res.replies[i])
			}
		}()
	}
	wg.Wait()
	return res
}

// latencies returns each answered request's latency from its due time, in
// microseconds, and the count of refused or failed requests.
func (r *rungResult) latencies() (lat []float64, failed int) {
	for i, rp := range r.replies {
		if rp.err != nil {
			failed++
			continue
		}
		lat = append(lat, us(rp.done.Sub(r.start.Add(r.reqs[i].due))))
	}
	return lat, failed
}

// rate returns the requests answered per second, from the start of the
// segment to its last answer.
func (r *rungResult) rate() float64 {
	var last time.Time
	answered := 0
	for _, rp := range r.replies {
		if rp.err == nil {
			answered++
			if rp.done.After(last) {
				last = rp.done
			}
		}
	}
	if answered == 0 {
		return 0
	}
	return float64(answered) / last.Sub(r.start).Seconds()
}

// calls returns the time each answered request spent in Server.Detect, from
// submit to answer, in microseconds.
func (r *rungResult) calls() []float64 {
	var out []float64
	for _, rp := range r.replies {
		if rp.err == nil {
			out = append(out, us(rp.done.Sub(rp.submit)))
		}
	}
	return out
}

// backlogGrows reports whether the outstanding count climbed through the
// rung: its mean over the last quarter of the rung exceeds twice the mean
// over the first quarter plus slack requests.
func backlogGrows(samples []backlogSample, dur time.Duration, slack float64) bool {
	var first, last []float64
	for _, s := range samples {
		switch {
		case s.at < dur/4:
			first = append(first, float64(s.outstanding))
		case s.at >= dur-dur/4:
			last = append(last, float64(s.outstanding))
		}
	}
	if len(first) == 0 || len(last) == 0 {
		return false
	}
	return mean(last) > 2*mean(first)+slack
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// segVerdict is the judgement of one segment of a rung.
type segVerdict struct {
	p99      time.Duration // from the due time, over answered requests
	failFrac float64       // failed or shed requests over sent
	growing  bool
}

func (v segVerdict) sustained() bool {
	return v.p99 <= latencyLimit && v.failFrac <= failLimit && !v.growing
}

// rungVerdict is the judgement of one rung: its completion rate and its
// segments' verdicts. A rung is sustained when more than half of its
// segments are, so a burst of host noise in a few segments does not fail it.
type rungVerdict struct {
	qps  float64 // answered requests per second
	segs []segVerdict
}

func (v rungVerdict) sustained() bool {
	ok := 0
	for _, s := range v.segs {
		if s.sustained() {
			ok++
		}
	}
	return 2*ok > len(v.segs)
}

// maxSustained returns the completion rate of the highest rung that is
// sustained, counting only rungs below the first one that is not: once the
// server falls behind, a higher rung that happens to pass does not count.
// It returns 0 when the lowest rung already fails.
func maxSustained(vs []rungVerdict) float64 {
	best := 0.0
	for _, v := range vs {
		if !v.sustained() {
			break
		}
		best = v.qps
	}
	return best
}

// digest hashes every bit of a detection answer, so two answers with equal
// digests are, short of a collision, bit-identical.
func digest(pd core.ProfileDetection) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for k := range b {
			b[k] = byte(x >> (8 * k))
		}
		h.Write(b[:])
	}
	for _, p := range pd.Result.Pressure {
		put(math.Float64bits(p))
	}
	for _, m := range pd.Result.Matches {
		io.WriteString(h, m.Label)
		io.WriteString(h, "\x00"+m.Class+"\x00")
		put(math.Float64bits(m.Similarity))
	}
	put(math.Float64bits(pd.Confidence))
	io.WriteString(h, pd.Label())
	return h.Sum64()
}

// serveSetup trains the two detectors the server swaps between, the first
// from seed 42 and the second from 43.
func serveSetup() ([2]*core.Detector, time.Duration) {
	t0 := time.Now()
	var dets [2]*core.Detector
	for i := range dets {
		dets[i] = core.Train(workload.TrainingSpecs(42+uint64(i)), core.Config{})
	}
	return dets, time.Since(t0)
}

// runServe offers the ladder of Poisson rates to an in-process server while
// a swapper alternates its detector, then checks every answer against the
// solo path of the detector generation that gave it.
func runServe(seed uint64, dur time.Duration, ts *traceSet, rep *report) {
	var setups []float64
	var dets [2]*core.Detector
	for i := 0; i < setupRepeats; i++ {
		d, s := serveSetup()
		setups = append(setups, s.Seconds())
		if i == 0 {
			dets = d
		}
	}
	rep.set("setup_s", median(setups), "s")

	// The run climbs the ladder ladderClimbs times; each climb gives every
	// rung one segment, and every segment is followed by the same burst.
	// Interleaving spreads a spell of host noise over all rungs instead of
	// one, and every end-to-end figure is a median over segments, bursts or
	// climbs.
	n := dets[0].Rec.ResourceCount()
	seg := dur / time.Duration(len(ladder)*ladderClimbs)
	rng := stats.NewRNG(seed ^ 0x5e7e)
	scheds := make([][][]request, ladderClimbs) // [climb][rung]
	for c := range scheds {
		scheds[c] = make([][]request, len(ladder))
		for i, r := range ladder {
			scheds[c][i] = schedule(rng.Split(), r.qps, seg, n)
		}
	}
	burstReqs := burst(rng.Split(), burstRequests, n)

	srv := serve.New(dets[0], serve.Config{Workers: runtime.NumCPU(), MaxBatch: serveMaxBatch})
	// Versions: 1 is the construction-time detector, and swap k installs
	// dets[k%2] as version k+1, so version v answers from dets[(v-1)%2].
	stop := make(chan struct{})
	var swapErr error
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		tick := time.NewTicker(swapEvery)
		defer tick.Stop()
		for k := uint64(1); ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				if v := srv.Swap(dets[k%2]); v != k+1 && swapErr == nil {
					swapErr = fmt.Errorf("swap %d returned version %d", k, v)
				}
			}
		}
	}()
	// The generator runs on this goroutine. Locking it to its thread lets
	// it lower that thread's timer slack, the kernel's allowance for firing
	// a sleep late, from 50µs to 1ns; if prctl fails the slack stays 50µs.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	segs := make([][]rungResult, len(ladder)) // [rung][climb]
	var all []rungResult
	var climbCPU []float64
	var burstRes []rungResult
	for c := range scheds {
		c0, sent := processCPU(), 0
		for i, r := range ladder {
			res := runRung(srv, r, scheds[c][i])
			segs[i] = append(segs[i], res)
			all = append(all, res)
			sent += len(res.reqs)
			res = runBurst(srv, burstReqs)
			burstRes = append(burstRes, res)
			all = append(all, res)
			sent += len(res.reqs)
		}
		climbCPU = append(climbCPU, ms(processCPU()-c0)/float64(sent))
	}
	close(stop)
	swapWG.Wait()
	total := srv.Stats()
	srv.Close()
	if swapErr != nil {
		rep.problem("serve: %v", swapErr)
	}
	checkReplies(dets, all, rep)

	verdicts := make([]rungVerdict, len(ladder))
	requests, within := 0, 0
	for i, r := range ladder {
		var lat, segP50, segCall []float64
		sent, failed, answered := 0, 0, 0
		v := rungVerdict{}
		for _, sr := range segs[i] {
			l, f := sr.latencies()
			lat = append(lat, l...)
			segP50 = append(segP50, median(l))
			segCall = append(segCall, median(sr.calls()))
			sent += len(sr.reqs)
			failed += f
			answered += len(l)
			v.segs = append(v.segs, segVerdict{
				p99:      time.Duration(summarise(l).P99 * 1e3),
				failFrac: float64(f) / float64(len(sr.reqs)),
				growing:  backlogGrows(sr.backlog, seg, float64(64*runtime.NumCPU())),
			})
		}
		v.qps = float64(answered) / (seg * ladderClimbs).Seconds()
		verdicts[i] = v
		requests += sent
		ph := rep.phase("serve." + r.name)
		ph.Attempted += sent
		ph.Failed += failed
		ph.Succeeded += sent - failed
		for _, x := range lat {
			if x <= us(latencyLimit) {
				within++
			}
		}
		d := summarise(lat)
		switch r.name {
		case lowRung:
			rep.set("latency_p50_ms", median(segCall)/1e3, "ms")
			rep.setP99("serve.p99_us.low", d, "us")
		case highRung:
			rep.set("serve.p50_us.high", median(segP50), "us")
			rep.setP99("serve.p99_us.high", d, "us")
		}
		fmt.Fprintf(os.Stderr, "serve rung %-6s n=%6d p50=%8.1fus p99=%8.1fus failed=%d sustained=%v\n",
			r.name, sent, median(segP50), d.P99, failed, v.sustained())
	}
	bp := rep.phase("serve.burst")
	var burstRates []float64
	for _, r := range burstRes {
		_, f := r.latencies()
		bp.Attempted += len(r.reqs)
		bp.Failed += f
		bp.Succeeded += len(r.reqs) - f
		burstRates = append(burstRates, r.rate())
	}
	rep.set("ops_per_s", median(burstRates), "1/s")
	rep.set("cpu_ms_per_op", median(climbCPU), "ms")
	rep.set("quality_pct", 100*float64(within)/float64(requests), "%")
	fmt.Fprintf(os.Stderr, "serve bursts %.0f/s\n", burstRates)
	if ts == nil {
		return
	}
	rep.set("serve.max_sustained_qps", maxSustained(verdicts), "1/s")
	var lags, calls []float64
	l := ts.newLane()
	for _, r := range all {
		if r.name == "burst" {
			continue // due all at once: lag is the wait for a slot
		}
		named := r.name == lowRung || r.name == highRung
		for k, rp := range r.replies {
			due := r.start.Add(r.reqs[k].due)
			lags = append(lags, us(rp.submit.Sub(due)))
			calls = append(calls, us(rp.done.Sub(rp.submit)))
			if named { // spans of the two named rungs keep the trace file small
				root := l.add("loadgen.request", 0, due, rp.done)
				l.add("serve.detect", root, rp.submit, rp.done)
			}
		}
	}
	dl, dc := summarise(lags), summarise(calls)
	rep.set("loadgen.lag_p50_us", dl.P50, "us")
	rep.setP99("loadgen.lag_p99_us", dl, "us")
	rep.set("serve.call_p50_us", dc.P50, "us")
	rep.setP99("serve.call_p99_us", dc, "us")
	batchMean := float64(total.Served) / float64(total.Batches)
	rep.set("serve.batch_mean", batchMean, "count")
	rep.set("serve.shed_frac", float64(total.Shed)/float64(total.Served+total.Shed), "ratio")
	rep.set("serve.swaps", float64(total.Swaps), "count")
	rep.set("mining.train_ms", 1e3*median(setups)/float64(len(dets)), "ms")
	replayBatch(dets[0], all, batchMean, rep)
}

// checkReplies recomputes every answered request on the solo path of the
// detector generation named by its snapshot and compares digests; a
// mismatch fails that request.
func checkReplies(dets [2]*core.Detector, results []rungResult, rep *report) {
	type job struct{ r, i int }
	var jobs []job
	for r := range results {
		for i, rp := range results[r].replies {
			if rp.err == nil {
				jobs = append(jobs, job{r, i})
			}
		}
	}
	bad := make([]bool, len(jobs))
	var wg sync.WaitGroup
	g := runtime.NumCPU()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(jobs); k += g {
				j := jobs[k]
				rq, rp := results[j.r].reqs[j.i], results[j.r].replies[j.i]
				want := dets[(rp.snapshot-1)%2].DetectProfile(rq.obs, rq.known)
				bad[k] = digest(want) != rp.digest
			}
		}(w)
	}
	wg.Wait()
	for k, b := range bad {
		if b {
			j := jobs[k]
			ph := rep.phase("serve." + results[j.r].name)
			ph.Succeeded--
			ph.Failed++
			rep.problem("serve: rung %s request %d differs from solo DetectProfile", results[j.r].name, j.i)
		}
	}
}

// replayBatch times DetectProfileBatch on the workload's own requests,
// grouped by mask into batches of the mean size the server formed, and
// reports the median time per query over the first replayBatches batches.
const replayBatches = 2000

func replayBatch(det *core.Detector, results []rungResult, batchMean float64, rep *report) {
	size := int(math.Round(batchMean))
	if size < 1 {
		size = 1
	}
	groups := make([][][]float64, numMasks)
	var perQuery []float64
	for _, r := range results {
		for _, rq := range r.reqs {
			if len(perQuery) == replayBatches {
				break
			}
			groups[rq.mask] = append(groups[rq.mask], rq.obs)
			if g := groups[rq.mask]; len(g) == size {
				t0 := time.Now()
				det.DetectProfileBatch(g, rq.known)
				perQuery = append(perQuery, us(time.Since(t0))/float64(size))
				groups[rq.mask] = nil
			}
		}
	}
	rep.set("mining.detect_batch_us_per_query", median(perQuery), "us")
}
