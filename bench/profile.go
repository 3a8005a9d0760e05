package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// cpuSample is one decoded profile sample: its stack as function names,
// leaf first (inlined frames expanded), the number of profiler ticks it
// stands for and their CPU time.
type cpuSample struct {
	frames []string
	count  int64
	ns     int64
}

// profileCPU runs f under the CPU profiler at the runtime's default
// 100Hz — a rate every kernel delivers; faster rates lose ticks on
// hosts whose kernel timer is slower — and returns the raw profile
// (gzipped protobuf, readable by `go tool pprof`) and its samples.
func profileCPU(f func() error) ([]byte, []cpuSample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("bench: start profile: %w", err)
	}
	ferr := f()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, nil, ferr
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), samples, nil
}

// parseProfile decodes a gzipped pprof protobuf profile. It reads only
// what attribution needs: samples, locations, functions and strings.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}

	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples    []rawSample
		strs       []string
		valueTypes []int64                 // sample_type type-name string indexes
		funcName   = map[uint64]int64{}    // function id -> name string index
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// A CPU profile carries two values per sample: "samples" (ticks)
	// and "cpu" (nanoseconds).
	countIdx, nsIdx := -1, -1
	for i, t := range valueTypes {
		switch str(t) {
		case "samples":
			countIdx = i
		case "cpu":
			nsIdx = i
		}
	}
	if countIdx < 0 || nsIdx < 0 {
		return nil, errors.New("bench: not a CPU profile")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) != len(valueTypes) {
			return nil, errProto
		}
		cs := cpuSample{count: s.vals[countIdx], ns: s.vals[nsIdx]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				cs.frames = append(cs.frames, str(funcName[fid]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

var errProto = errors.New("bench: malformed profile protobuf")

// eachField walks the fields of one protobuf message, handing varint
// and fixed-width fields over as v and length-delimited ones as b.
func eachField(data []byte, f func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
		default:
			return errProto
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated integer field given either as one
// varint (v) or packed (b).
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		c := b[i]
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pkgOf returns the import path of a profiled function name; a name
// without a package (assembly stubs such as gcWriteBarrier) belongs to
// the runtime.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other import paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime"
	}
	return fn[:slash+1+dot]
}

// layerOf returns the repository package (layer) a function belongs
// to, or "" for code outside the repository's internal packages.
func layerOf(fn string) string {
	const repo = "repro/internal/"
	pkg := pkgOf(fn)
	if !strings.HasPrefix(pkg, repo) {
		return ""
	}
	return pkg[len(repo):]
}

// Callback attribution. A simulation callback is the first repository
// frame leafward of the innermost simtime frame: the scheduler or the
// trigger wheel called it. Samples that never reach a callback are
// attributed by the phase or goroutine they belong to.
var callbackCategories = []string{
	"appscript.scan", "appscript.heartbeat", "monitor.scrape", "attacker.session",
	"outlets.pickup", "malnet", "simtime.dispatch", "setup", "snapshot",
	"analysis.finalize", "router", "shard", "c3.server", "loadgen", "sched", "gc", "other",
}

// phaseMarkers attribute a sample outside any simulation callback by
// the outermost frame naming a phase or a serving goroutine. A sample
// that names none but runs the benchmark's own code is load-generator
// work: the benchmark calls every phase, so its frames sit outside
// every marker and cannot be checked first.
var phaseMarkers = []struct{ prefix, category string }{
	{"repro/internal/snapshot.", "snapshot"},
	{"repro/internal/honeynet.(*Experiment).Snapshot", "snapshot"},
	{"repro/internal/honeynet.(*Experiment).WriteSnapshot", "snapshot"},
	{"repro/internal/honeynet.Resume", "snapshot"},
	{"repro/internal/honeynet.New", "setup"},
	{"repro/internal/honeynet.(*Experiment).Setup", "setup"},
	{"repro/internal/honeynet.(*Experiment).setup", "setup"},
	{"repro/internal/honeynet.(*Experiment).Leak", "setup"},
	{"repro/internal/livefleet.BootService", "setup"},
	{"repro/internal/honeynet.(*Experiment).BuildAggregates", "analysis.finalize"},
	{"repro/internal/honeynet.(*Experiment).Aggregates", "analysis.finalize"},
	{"repro/internal/livefleet.(*Router)", "router"},
	{"repro/internal/webmail.(*Server)", "shard"},
	{"repro/internal/c3.(*Server)", "c3.server"},
}

// ownPkg is the benchmark's package as profiles name it: "main" in the
// benchmark binary, its import path in the test binary.
var ownPkg = func() string {
	pc, _, _, _ := runtime.Caller(0)
	return pkgOf(runtime.FuncForPC(pc).Name())
}()

func ownFrame(frames []string) bool {
	for _, fn := range frames {
		if pkgOf(fn) == ownPkg {
			return true
		}
	}
	return false
}

// gcMarkers are runtime functions that do garbage-collection work,
// whatever goroutine they run on.
var gcMarkers = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime._GC",
}

// schedMarkers are the scheduler and netpoller: the cost of switching
// goroutines rather than running any of them.
var schedMarkers = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goschedImpl",
	"runtime.netpoll", "runtime.mstart", "runtime._System", "runtime.sysmon",
}

func hasPrefixAny(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// classifyCallback returns the callback category of one stack (leaf
// first).
func classifyCallback(frames []string) string {
	for _, fn := range frames {
		if hasPrefixAny(fn, gcMarkers) {
			return "gc"
		}
	}
	inner := -1
	for i, fn := range frames {
		if layerOf(fn) == "simtime" {
			inner = i
			break
		}
	}
	if inner >= 0 {
		for i := inner - 1; i >= 0; i-- {
			switch layerOf(frames[i]) {
			case "":
				continue
			case "honeynet":
				// The engine's wiring closures; the callback they wrap
				// decides.
				continue
			case "appscript":
				for _, fn := range frames[:i+1] {
					if strings.HasSuffix(fn, ".heartbeat") {
						return "appscript.heartbeat"
					}
				}
				return "appscript.scan"
			case "monitor":
				return "monitor.scrape"
			case "attacker":
				return "attacker.session"
			case "outlets":
				return "outlets.pickup"
			case "malnet":
				return "malnet"
			default:
				return "other"
			}
		}
		return "simtime.dispatch"
	}
	for i := len(frames) - 1; i >= 0; i-- {
		for _, m := range phaseMarkers {
			if strings.HasPrefix(frames[i], m.prefix) {
				return m.category
			}
		}
	}
	if ownFrame(frames) {
		return "loadgen"
	}
	for _, fn := range frames {
		if hasPrefixAny(fn, schedMarkers) {
			return "sched"
		}
	}
	return "other"
}

// Self attribution: where the CPU actually was. A leaf in a mutex is
// lock cost, a leaf in the runtime is runtime cost, a leaf in a system
// call or the poller is network cost; anything else goes to the
// innermost repository package on the stack.
var selfCategories = []string{
	"webmail", "appscript", "simtime", "monitor", "analysis", "corpus", "snapshot",
	"attacker", "livefleet", "c3", "loadgen", "net", "runtime", "sync_lock", "other",
}

func classifySelf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	leaf := frames[0]
	pkg := pkgOf(leaf)
	switch {
	case (pkg == "sync" || pkg == "internal/sync") && strings.Contains(leaf, "Mutex"):
		return "sync_lock"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "net" || strings.HasSuffix(pkg, "/syscall"):
		return "net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime") || strings.HasPrefix(pkg, "runtime/internal"):
		return "runtime"
	}
	for _, fn := range frames {
		if pkgOf(fn) == ownPkg {
			return "loadgen"
		}
		l := layerOf(fn)
		if l == "" {
			continue
		}
		for _, c := range selfCategories {
			if c == l {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// attribution is the CPU share of each category, in percent.
type attribution struct {
	callback map[string]float64
	self     map[string]float64
	samples  int
}

func attribute(samples []cpuSample) attribution {
	a := attribution{callback: map[string]float64{}, self: map[string]float64{}}
	var total int64
	for _, s := range samples {
		a.samples += int(s.count)
		total += s.ns
		a.callback[classifyCallback(s.frames)] += float64(s.ns)
		a.self[classifySelf(s.frames)] += float64(s.ns)
	}
	if total == 0 {
		return a
	}
	for k := range a.callback {
		a.callback[k] *= 100 / float64(total)
	}
	for k := range a.self {
		a.self[k] *= 100 / float64(total)
	}
	return a
}

// report sets the cpu.* and self.* metrics from an attribution.
func (a attribution) report(res *result) {
	for _, c := range callbackCategories {
		res.set("cpu."+c, a.callback[c], a.samples)
	}
	for _, c := range selfCategories {
		res.set("self."+c, a.self[c], a.samples)
	}
}
