package par

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFanOutRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	counts := make([]atomic.Int32, n)
	FanOut(n, 8, nil, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, got)
		}
	}
}

func TestFanOutDegenerateInputs(t *testing.T) {
	ran := 0
	FanOut(0, 4, nil, func(int) { ran++ })
	FanOut(-3, 4, nil, func(int) { ran++ })
	if ran != 0 {
		t.Fatalf("degenerate inputs ran %d bodies, want 0", ran)
	}
	// workers beyond n must not deadlock or double-run.
	var mask atomic.Int64
	FanOut(3, 64, nil, func(i int) { mask.Add(1 << uint(i)) })
	if mask.Load() != 0b111 {
		t.Fatalf("bodies ran with mask %b, want 111", mask.Load())
	}
}

func TestFanOutBlocksCoverExactly(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{1, 1}, {7, 3}, {8, 3}, {9, 3}, {100, 8}, {5, 16}, {4096, 8},
	} {
		counts := make([]atomic.Int32, tc.n)
		var blocks atomic.Int32
		FanOutBlocks(tc.n, tc.workers, nil, func(lo, hi int) {
			blocks.Add(1)
			if hi <= lo {
				t.Errorf("n=%d workers=%d: empty block [%d,%d)", tc.n, tc.workers, lo, hi)
			}
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: index %d covered %d times, want 1", tc.n, tc.workers, i, got)
			}
		}
		want := tc.workers
		if want > tc.n {
			want = tc.n
		}
		if got := int(blocks.Load()); got != want && !(want <= 1 && got == 1) {
			t.Fatalf("n=%d workers=%d: ran %d blocks, want %d", tc.n, tc.workers, got, want)
		}
	}
}

// Block boundaries are a pure function of (n, workers): within one element
// of balanced, the first n%workers blocks taking the extra element.
func TestFanOutBlocksBalanced(t *testing.T) {
	var mu sync.Mutex
	sizes := map[int]int{}
	firsts := make(map[int]int) // block first index → size
	FanOutBlocks(10, 3, nil, func(lo, hi int) {
		mu.Lock()
		sizes[hi-lo]++
		firsts[lo] = hi - lo
		mu.Unlock()
	})
	if sizes[4] != 1 || sizes[3] != 2 {
		t.Fatalf("blocks of 10 over 3 workers sized %v, want one 4 and two 3s", sizes)
	}
	if firsts[0] != 4 {
		t.Fatalf("first block sized %d, want 4 (remainder goes to the leading blocks)", firsts[0])
	}
}

func TestFanOutPanicKeepsLowestIndex(t *testing.T) {
	ran := make([]atomic.Bool, 8)
	defer func() {
		wp, ok := recover().(*WorkerPanic)
		if !ok {
			t.Fatal("want *WorkerPanic")
		}
		if wp.Index != 1 {
			t.Fatalf("WorkerPanic.Index = %d, want 1", wp.Index)
		}
		if wp.Label != "unit 1" {
			t.Fatalf("WorkerPanic.Label = %q, want %q", wp.Label, "unit 1")
		}
		if !strings.Contains(wp.Error(), "boom 1") {
			t.Fatalf("Error() = %q, missing original value", wp.Error())
		}
		if wp.Stack == "" {
			t.Fatal("WorkerPanic.Stack is empty")
		}
		// The panics must not have cancelled the other bodies.
		for i := range ran {
			if i != 1 && i != 5 && !ran[i].Load() {
				t.Fatalf("index %d never ran after index 1 panicked", i)
			}
		}
	}()
	FanOut(len(ran), 4, func(i int) string { return "unit " + string(rune('0'+i)) }, func(i int) {
		if i == 1 || i == 5 {
			panic("boom " + string(rune('0'+i)))
		}
		ran[i].Store(true)
	})
	t.Fatal("FanOut returned instead of re-panicking")
}

func TestFanOutBlocksPanicPropagates(t *testing.T) {
	survived := make([]atomic.Bool, 16)
	defer func() {
		wp, ok := recover().(*WorkerPanic)
		if !ok {
			t.Fatal("want *WorkerPanic")
		}
		if wp.Index != 0 {
			t.Fatalf("WorkerPanic.Index = %d, want 0 (first index of panicking block)", wp.Index)
		}
		// Other blocks must have completed despite the panic.
		for i := 8; i < 16; i++ {
			if !survived[i].Load() {
				t.Fatalf("index %d never ran after block 0 panicked", i)
			}
		}
	}()
	FanOutBlocks(16, 2, nil, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 3 {
				panic("block boom")
			}
			survived[i].Store(true)
		}
	})
	t.Fatal("FanOutBlocks returned instead of re-panicking")
}
