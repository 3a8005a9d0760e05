// Command bench is the repository benchmark. It runs one of four
// workloads — two of the simulation engine, two of the serving stack —
// and either measures the end-to-end metrics (the untraced pass,
// -trace 0) or the per-layer metrics (the traced pass, -trace 1) that
// the root BENCHMARK.json lists. Every run checks that the program's
// outputs are correct and prints one JSON result object as the last
// line of its standard output. README.md describes the workloads, the
// metrics and how to compare two sets of runs.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload fleet-idle --seed 42 --seconds 15 --trace 0
//	bash bench/run.sh --seed 42                  # every workload, both passes
//	bash bench/run.sh -compare A.jsonl B.jsonl   # two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one set of generated inputs and the code that measures
// the program on them.
type workload struct {
	name string
	run  func(*runCtx) error
}

var workloads = []workload{
	{"fleet-idle", runFleetIdle},
	{"matrix-active", runMatrixActive},
	{"live-serve", runLiveServe},
	{"c3-serve", runC3Serve},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCtx is what one run of one workload sees: its generated-input
// seed, its measuring budget, which pass it is, and where its findings
// go.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// tiny shrinks every input so the tests can drive each workload
	// through the same code path in a fraction of a second.
	tiny   bool
	outDir string
	tr     *tracer
	res    *result
}

// result collects one run's metrics, exact counts and correctness
// findings.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]measure
	counts    map[string]float64
	digest    string
}

// measure is one metric value and the number of samples it summarises.
type measure struct {
	value float64
	n     int
}

func newResult() *result {
	return &result{metrics: map[string]measure{}, counts: map[string]float64{}}
}

func (r *result) set(name string, value float64, n int) {
	r.metrics[name] = measure{value: value, n: n}
}

// problem records a failed correctness check; any problem makes the
// run incorrect.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// lists, which are the single source of the names, units, directions
// and bounds the program prints and compares.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read spec: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("bench: %s lists no metrics", path)
	}
	return &spec, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: every workload, both passes)")
	seed := fs.Int64("seed", 42, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 15, "measuring budget of one run, in seconds")
	trace := fs.Int("trace", 0, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics)")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for run records, spans and profiles")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition listing the metrics")
	compare := fs.Bool("compare", false, "compare two run logs (runs.jsonl files) given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two run logs")
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		c := &runCtx{workload: w.name, seed: *seed, seconds: budget, traced: *trace == 1, outDir: *out}
		line, err := measureOnce(spec, w, c, stdout)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := writeLine(stdout, line); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if !line.Correct {
			return 1
		}
		return 0
	}

	// Every workload, untraced then traced: the metrics of all runs go
	// into one summary line, prefixed with the workload name.
	summary := resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := &runCtx{workload: w.name, seed: *seed, seconds: budget, traced: traced, outDir: *out}
			line, err := measureOnce(spec, w, c, stdout)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			summary.Correct = summary.Correct && line.Correct
			summary.Attempted += line.Attempted
			summary.Failed += line.Failed
			for k, v := range line.Metrics {
				summary.Metrics[w.name+"/"+k] = v
			}
		}
	}
	if err := writeLine(stdout, summary); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !summary.Correct {
		return 1
	}
	return 0
}

// resultLine is the JSON object printed as the last line of a run.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeLine(w io.Writer, line resultLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// measureOnce runs one pass of one workload, prints its metrics one per
// line, and records the run, its spans and its profile under the out
// directory.
func measureOnce(spec *benchSpec, w workload, c *runCtx, stdout io.Writer) (resultLine, error) {
	c.tr = newTracer(w.name)
	c.res = newResult()
	if err := w.run(c); err != nil {
		return resultLine{}, fmt.Errorf("bench: %s: %w", w.name, err)
	}
	line, printed := finish(spec, c)
	for _, p := range printed {
		fmt.Fprintln(stdout, p)
	}
	if err := writeRecord(c, line); err != nil {
		return resultLine{}, err
	}
	if err := c.tr.writeFile(filepath.Join(c.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return resultLine{}, err
	}
	return line, nil
}

// finish turns a run's findings into its result line: the pass's metric
// list from the spec, each with the spec's unit. An end-to-end metric
// must be measured and non-zero; a per-layer metric the workload does
// not exercise reads 0. A metric the spec does not list is a defect of
// the benchmark and fails the run.
func finish(spec *benchSpec, c *runCtx) (resultLine, []string) {
	res := c.res
	list := spec.EndToEnd
	if c.traced {
		list = spec.PerLayer
	}
	listed := map[string]bool{}
	line := resultLine{Metrics: map[string]lineMetric{}}
	var printed []string
	for _, m := range list {
		listed[m.Name] = true
		got, ok := res.metrics[m.Name]
		if !c.traced && (!ok || got.value <= 0) {
			res.problem("end-to-end metric %s not measured", m.Name)
		}
		line.Metrics[m.Name] = lineMetric{Value: got.value, Unit: m.Unit}
		printed = append(printed, fmt.Sprintf("%s %s %.6g %s n=%d", c.workload, m.Name, got.value, m.Unit, got.n))
	}
	var unknown []string
	for name := range res.metrics {
		if !listed[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	for _, name := range unknown {
		res.problem("metric %s is not listed in the spec for this pass", name)
	}
	for _, p := range res.problems {
		printed = append(printed, fmt.Sprintf("%s problem: %s", c.workload, p))
	}
	line.Attempted = res.attempted
	if line.Attempted < 1 {
		line.Attempted = 1
		res.problem("nothing attempted")
	}
	line.Failed = res.failed
	line.Correct = len(res.problems) == 0 && res.failed == 0
	return line, printed
}

// runRecord is one line of <out>/runs.jsonl: the result line plus what
// -compare needs — sample counts, exact counts and the output digest.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]recordValue `json:"metrics"`
	Counts    map[string]float64     `json:"counts"`
	Digest    string                 `json:"digest,omitempty"`
	Problems  []string               `json:"problems,omitempty"`
}

type recordValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func writeRecord(c *runCtx, line resultLine) error {
	rec := runRecord{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds.Seconds(),
		Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed,
		Metrics: map[string]recordValue{}, Counts: c.res.counts,
		Digest: c.res.digest, Problems: c.res.problems,
	}
	if c.traced {
		rec.Trace = 1
	}
	for name, m := range line.Metrics {
		rec.Metrics[name] = recordValue{Value: m.Value, Unit: m.Unit, N: c.res.metrics[name].n}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	pass := "untraced"
	if c.traced {
		pass = "traced"
	}
	if err := os.WriteFile(filepath.Join(c.outDir, "results-"+c.workload+"-"+pass+".json"), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write results: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(c.outDir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("bench: open run log: %w", err)
	}
	_, werr := f.Write(append(data, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("bench: append run log: %w", werr)
	}
	return nil
}
