package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded on the benchmark's side of
// the call: name, start, end and the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace's base time
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// traceSet holds every span of one run in memory. Each goroutine records
// into its own lane, so recording takes no lock; lanes are read only after
// their goroutines have been waited for.
type traceSet struct {
	base  time.Time
	mu    sync.Mutex
	lanes []*lane
}

func newTraceSet() *traceSet { return &traceSet{base: time.Now()} }

// lane is one goroutine's span buffer. A nil *lane records nothing, so the
// untraced path pays one nil check per call site.
type lane struct {
	set   *traceSet
	id    int64
	spans []span
}

// newLane returns a fresh lane, or nil when ts is nil (tracing off).
func (ts *traceSet) newLane() *lane {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	l := &lane{set: ts, id: int64(len(ts.lanes)+1) << 40}
	ts.lanes = append(ts.lanes, l)
	return l
}

// begin opens a span and returns its id (0 on a nil lane).
func (l *lane) begin(name string, parent int64) int64 {
	if l == nil {
		return 0
	}
	id := l.id + int64(len(l.spans)) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(l.set.base))})
	return id
}

// end closes the span begin returned.
func (l *lane) end(id int64) {
	if l == nil {
		return
	}
	l.spans[id-l.id-1].End = int64(time.Since(l.set.base))
}

// add records an already-timed span and returns its id (0 on a nil lane).
func (l *lane) add(name string, parent int64, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	id := l.id + int64(len(l.spans)) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.set.base)), End: int64(end.Sub(l.set.base))})
	return id
}

// durations returns the duration of every span with the given name, in
// microseconds.
func (ts *traceSet) durations(name string) []float64 {
	var out []float64
	for _, l := range ts.lanes {
		for _, s := range l.spans {
			if s.Name == name {
				out = append(out, us(s.dur()))
			}
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (ts *traceSet) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range ts.lanes {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("write trace: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
