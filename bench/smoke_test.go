package main

import (
	"io"
	"testing"
	"time"
)

// TestWorkloadsTiny drives every workload, untraced and traced, through
// the same code path as a real run on tiny inputs, and checks that the
// runs are correct and that together they produce every metric the
// spec lists.
func TestWorkloadsTiny(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: spec %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	produced := map[string]bool{}
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := &runCtx{workload: w.name, seed: 7, seconds: 300 * time.Millisecond, traced: traced, tiny: true, outDir: out}
			line, err := measureOnce(spec, w, c, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !line.Correct || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, line.Correct, line.Attempted, line.Failed, c.res.problems)
			}
			for name := range c.res.metrics {
				produced[name] = true
			}
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !produced[m.Name] {
			t.Errorf("no workload produces %s", m.Name)
		}
	}
}
