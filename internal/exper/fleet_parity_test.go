package exper

import (
	"bytes"
	"testing"
)

// TestFleetExpParityAcrossShardWorkers is the fleet-scale determinism
// contract at the experiment level: the rendered fleet report must be
// byte-identical between the serial single-worker reference and every
// sharded -shardworkers level, including widths that do not divide the
// server count. The engine-level parity test (internal/fleet) checks the
// event stream; this one checks everything layered on top — scheduler
// decisions, probe scores, candidate judgments, the formatted table.
func TestFleetExpParityAcrossShardWorkers(t *testing.T) {
	render := func(workers int) []byte {
		var buf bytes.Buffer
		FleetExp(Options{Seed: 42, ShardWorkers: workers}).Render(&buf)
		return buf.Bytes()
	}
	ref := render(1)
	if len(ref) == 0 {
		t.Fatal("serial reference rendered no output")
	}
	for _, workers := range []int{2, 4, 8} {
		if got := render(workers); !bytes.Equal(got, ref) {
			t.Fatalf("shardworkers=%d output diverged from serial reference (b) at %s",
				workers, firstDivergence(got, ref))
		}
	}
}
