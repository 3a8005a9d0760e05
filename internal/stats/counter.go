package stats

import "sync/atomic"

// Counter is a monotonically increasing atomic tally, safe for
// concurrent increment from hot serving paths. The zero value is
// ready to use; reads never block writers.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; a Counter never decreases).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Highwater tracks a concurrent level (e.g. in-flight requests) and
// the maximum it ever reached. The zero value is ready to use. Enter
// and Exit must be balanced; High is monotone even as the level falls.
type Highwater struct {
	level atomic.Int64
	high  atomic.Int64
}

// Enter raises the level by one and folds it into the highwater mark.
func (h *Highwater) Enter() {
	v := h.level.Add(1)
	for {
		m := h.high.Load()
		if v <= m || h.high.CompareAndSwap(m, v) {
			return
		}
	}
}

// Exit lowers the level by one.
func (h *Highwater) Exit() { h.level.Add(-1) }

// High returns the maximum level ever observed.
func (h *Highwater) High() int64 { return h.high.Load() }
