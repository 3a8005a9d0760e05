package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runCompare compares two sets of runs — two runs.jsonl logs — metric
// by metric. For each workload and end-to-end metric it prints both
// sets' medians and quartiles, the change of the median toward worse,
// and whether the change and both spreads stay within the metric's
// bound. It also flags any exact count or digest that differs between
// runs of the same workload and seed. It exits non-zero if anything is
// out of bounds or differs.
func runCompare(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ok := true
	fmt.Fprintf(stdout, "%-14s %-16s %5s %11s %11s %11s %11s %11s %11s %8s %8s %8s %6s %s\n",
		"workload", "metric", "runs", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "A spread", "B spread", "worse", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(a, w.Name, m.Name), metricValues(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, amed, a3 := quartiles(va)
			b1, bmed, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/amed, (b3-b1)/bmed
			worse := (bmed - amed) / amed
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "WORSE"
			case m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound):
				verdict = "SPREAD"
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Fprintf(stdout, "%-14s %-16s %2d/%-2d %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g %7.2f%% %7.2f%% %7.2f%% %5.0f%% %s\n",
				w.Name, m.Name, len(va), len(vb), a1, amed, a3, b1, bmed, b3,
				100*spreadA, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
	}
	for _, d := range countDiffs(a, b) {
		ok = false
		fmt.Fprintln(stdout, "COUNT", d)
	}
	if !ok {
		return 1
	}
	return 0
}

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return out, nil
}

// metricValues collects one metric over the untraced runs of a
// workload.
func metricValues(runs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// countDiffs lists the exact counts and digests that differ between
// any two runs, in either set, of the same workload, seed and length.
func countDiffs(a, b []runRecord) []string {
	type key struct {
		workload string
		seed     int64
		seconds  float64
	}
	first := map[key]runRecord{}
	var diffs []string
	for _, r := range append(append([]runRecord(nil), a...), b...) {
		k := key{r.Workload, r.Seed, r.Seconds}
		ref, seen := first[k]
		if !seen {
			first[k] = r
			continue
		}
		if ref.Digest != r.Digest {
			diffs = append(diffs, fmt.Sprintf("%s seed %d: digest %s vs %s", r.Workload, r.Seed, ref.Digest, r.Digest))
		}
		names := map[string]bool{}
		for n := range ref.Counts {
			names[n] = true
		}
		for n := range r.Counts {
			names[n] = true
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			x, y := ref.Counts[n], r.Counts[n]
			if x != y {
				diffs = append(diffs, fmt.Sprintf("%s seed %d: %s %v vs %v", r.Workload, r.Seed, n, x, y))
			}
		}
	}
	return diffs
}
