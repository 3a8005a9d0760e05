package stats

import (
	"sync"
	"testing"
)

// TestCounterConcurrent: increments from many goroutines are all
// counted (meant for the -race matrix).
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
			c.Add(2)
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*(each+2) {
		t.Fatalf("counter = %d, want %d", got, workers*(each+2))
	}
}

// TestHighwaterTracksMax: the mark records the peak level and never
// falls with it.
func TestHighwaterTracksMax(t *testing.T) {
	var h Highwater
	h.Enter()
	h.Enter()
	h.Enter()
	if h.High() != 3 {
		t.Fatalf("high %d, want 3", h.High())
	}
	h.Exit()
	h.Exit()
	if h.High() != 3 {
		t.Fatalf("high fell to %d", h.High())
	}
	h.Enter()
	if h.High() != 3 {
		t.Fatalf("high %d after re-enter below peak, want 3", h.High())
	}
	// The level is back at 2, so two more entries set a new peak.
	h.Enter()
	h.Enter()
	if h.High() != 4 {
		t.Fatalf("high %d after climbing past the peak, want 4", h.High())
	}
}

// TestHighwaterConcurrent: the mark never exceeds the worker count and
// the level balances out (meant for the -race matrix).
func TestHighwaterConcurrent(t *testing.T) {
	var h Highwater
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Enter()
				h.Exit()
			}
		}()
	}
	wg.Wait()
	if high := h.High(); high < 1 || high > workers {
		t.Fatalf("high %d outside [1,%d]", high, workers)
	}
	// Balanced enter/exit left the level at 0, so workers+1 entries
	// set the mark to exactly workers+1.
	for i := 0; i <= workers; i++ {
		h.Enter()
	}
	if high := h.High(); high != workers+1 {
		t.Fatalf("high %d after %d entries from a balanced level, want %d", high, workers+1, workers+1)
	}
}
