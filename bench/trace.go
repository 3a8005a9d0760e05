package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer keeps a run's spans in memory and writes them out when the run
// ends. Phases, reps, segments and ladder steps are spans in both
// passes; per-request spans are recorded in the traced pass only. The
// spans wrap the benchmark's own calls into each layer — the program
// itself records none.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

// span is one timed interval. Times are offsets from the tracer's
// epoch; a per-request span carries its request id, unique within its
// parent span.
type span struct {
	id, parent, req int64
	name            string
	start, end      time.Duration
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// open starts a span under parent (0 for a root) and returns its id.
func (t *tracer) open(name string, parent int64) int64 {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: now, end: -1})
	return id
}

// close ends span id and returns its duration.
func (t *tracer) close(id int64) time.Duration {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = now
	return now - s.start
}

// request records one finished request span.
func (t *tracer) request(name string, parent, req int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		id: int64(len(t.spans)) + 1, parent: parent, req: req, name: name,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch),
	})
}

type spanJSON struct {
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Req      int64   `json:"req"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: write spans: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		data, err := json.Marshal(spanJSON{
			ID: s.id, Parent: s.parent, Name: s.name, Workload: t.workload, Req: s.req,
			StartUS: us(s.start), EndUS: us(s.end),
		})
		if err != nil {
			return err
		}
		bw.Write(data)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("bench: write spans: %w", err)
	}
	return f.Close()
}
