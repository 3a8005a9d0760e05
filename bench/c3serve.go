package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/c3"
	"repro/internal/honeynet"
)

// c3Index is one built credential index behind its wire server.
type c3Index struct {
	store *c3.Store
	srv   *c3.Server
	addr  string
	build time.Duration
}

// startIndex builds a fresh index of synthetic credentials, sorts it
// and starts serving it; the returned duration is the workload's
// set-up time.
func startIndex(c *runCtx, parent int64) (*c3Index, time.Duration, error) {
	n := 1_000_000
	if c.tiny {
		n = 20_000
	}
	id := c.tr.open("c3.setup", parent)
	defer c.tr.close(id)
	bid := c.tr.open("c3.build", id)
	store, err := c3.New(c3.Config{})
	if err != nil {
		return nil, 0, err
	}
	at := honeynet.DefaultStart()
	c3.Synthetic(deriveSeed(c.seed, "c3-index"), n, func(account, password string) {
		store.Add(account, password, "synthetic", at)
	})
	// The first read pays the index's one co-sort; serving starts
	// after it.
	if _, err := store.Range(0); err != nil {
		return nil, 0, err
	}
	ix := &c3Index{store: store, srv: c3.NewServer(store), build: c.tr.close(bid)}
	if ix.addr, err = ix.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, 0, err
	}
	return ix, c.tr.close(id), nil
}

// queries builds per-connection range frames over seeded prefixes and
// the load that sends them, checking every reply.
func (ix *c3Index) queries(c *runCtx, label string, rate float64, warm, dur time.Duration, count int) *load {
	bits := ix.store.Bits()
	prefixes := make([][]uint64, serveConns)
	frames := make([][][]byte, serveConns)
	for conn := range frames {
		prefixes[conn] = seededPrefixes(deriveSeed(c.seed, fmt.Sprintf("%s-%d", label, conn)), count, bits)
		frames[conn] = make([][]byte, count)
		for i, p := range prefixes[conn] {
			frames[conn][i] = []byte(fmt.Sprintf(`{"op":"range","prefix":"%x"}`+"\n", p))
		}
	}
	return &load{
		addr: ix.addr, rate: rate, warm: warm, dur: dur, frames: frames,
		check: func(conn, i int, reply []byte) error {
			return ix.checkRange(prefixes[conn][i], i*serveConns+conn, reply)
		},
		timeout: requestTimeout,
		name:    func(int, int) string { return "c3.range" },
	}
}

// checkRange verifies one range reply: ok, every hash in the requested
// bucket, and — for every 1024th request — exactly the bucket the
// store returns in process.
func (ix *c3Index) checkRange(prefix uint64, req int, reply []byte) error {
	if err := checkOK(reply); err != nil {
		return err
	}
	hashes, err := parseHashes(reply)
	if err != nil {
		return err
	}
	shift := uint(64 - ix.store.Bits())
	for _, h := range hashes {
		if h>>shift != prefix {
			return fmt.Errorf("range %x returned hash %016x outside the bucket", prefix, h)
		}
	}
	if req%1024 != 0 {
		return nil
	}
	want, err := ix.store.Range(prefix)
	if err != nil {
		return err
	}
	if len(want) != len(hashes) {
		return fmt.Errorf("range %x returned %d hashes, the store holds %d", prefix, len(hashes), len(want))
	}
	for i := range want {
		if want[i] != hashes[i] {
			return fmt.Errorf("range %x differs from the store at entry %d", prefix, i)
		}
	}
	return nil
}

var hashesKey = []byte(`"hashes":[`)

// parseHashes reads the hash list of a range reply without a full JSON
// decode: a list of 16-hex-digit strings. An empty bucket has no list.
func parseHashes(reply []byte) ([]uint64, error) {
	i := bytes.Index(reply, hashesKey)
	if i < 0 {
		return nil, nil
	}
	b := reply[i+len(hashesKey):]
	var out []uint64
	for {
		if len(b) < 18 || b[0] != '"' || b[17] != '"' {
			return nil, errors.New("malformed hash list")
		}
		var h uint64
		for _, ch := range b[1:17] {
			switch {
			case ch >= '0' && ch <= '9':
				h = h<<4 | uint64(ch-'0')
			case ch >= 'a' && ch <= 'f':
				h = h<<4 | uint64(ch-'a'+10)
			default:
				return nil, errors.New("malformed hash")
			}
		}
		out = append(out, h)
		b = b[18:]
		if len(b) > 0 && b[0] == ',' {
			b = b[1:]
			continue
		}
		if len(b) > 0 && b[0] == ']' {
			return out, nil
		}
		return nil, errors.New("unterminated hash list")
	}
}

func (ix *c3Index) openLoad(c *runCtx, s, k int, warm, dur time.Duration) (*load, error) {
	return ix.queries(c, fmt.Sprintf("c3-open-%d-%d", s, k), c3Serve.refRate, warm, dur, perConn(c3Serve.refRate, warm+dur)), nil
}

// capLoad cycles through a fixed set of frames for as long as the
// burst runs: range queries carry no session state.
func (ix *c3Index) capLoad(c *runCtx, s, k int, warm, dur time.Duration) (*load, error) {
	l := ix.queries(c, fmt.Sprintf("c3-cap-%d-%d", s, k), 0, warm, dur, 1<<16)
	l.cyclic = true
	return l, nil
}

func (ix *c3Index) close() { ix.srv.Close() }

func runC3Serve(c *runCtx) error {
	if c.traced {
		return c3Traced(c)
	}
	return runServing(c, func(parent int64) (servingTarget, time.Duration, error) {
		ix, setup, err := startIndex(c, parent)
		if err == nil {
			c.res.counts["c3.credentials"] = float64(ix.store.Len())
		}
		return ix, setup, err
	})
}

// c3Traced is the traced pass of c3-serve: the cost of one range query
// in the store, in the server's handler and over the wire, then the
// rate ladder, the reference rate without and with per-request spans,
// and one closed-loop burst under the CPU profiler.
func c3Traced(c *runCtx) error {
	warm, dur := phases(c)
	runtime.GC()
	ix, _, err := startIndex(c, 0)
	if err != nil {
		return err
	}
	defer ix.srv.Close()
	c.res.set("c3.build_s", ix.build.Seconds(), 1)
	c.res.set("c3.bucket_mean", float64(ix.store.Len())/float64(ix.store.Buckets()), 1)

	probes := 100_000
	if c.tiny {
		probes = 5_000
	}
	prefixes := seededPrefixes(deriveSeed(c.seed, "c3-probe"), probes, ix.store.Bits())
	start := time.Now()
	for _, p := range prefixes {
		if _, err := ix.store.Range(p); err != nil {
			return err
		}
	}
	c.res.set("c3.store.range_ns", float64(time.Since(start).Nanoseconds())/float64(probes), probes)
	reqs := make([]c3.Request, probes)
	for i, p := range prefixes {
		reqs[i] = c3.Request{Op: "range", Prefix: fmt.Sprintf("%x", p)}
	}
	start = time.Now()
	for i := range reqs {
		if resp := ix.srv.Handle(&reqs[i]); !resp.OK {
			return fmt.Errorf("handle: %s", resp.Error)
		}
	}
	handle := time.Since(start) / time.Duration(probes)
	c.res.set("c3.server.handle_ns", float64(handle.Nanoseconds()), probes)

	client := ix.queries(c, "c3-client", 0, warm, dur, perConn(200000, warm+dur))
	client.frames = client.frames[:1]
	cr, err := client.run()
	if err != nil {
		return err
	}
	tallyLoad(c, "client", cr)
	clientP50 := quantile(sortDurations(cr.lat), 0.5)
	c.res.set("c3.client.p50_us", us(clientP50), len(cr.lat))
	c.res.set("c3.wire.overhead_us", us(clientP50-handle), len(cr.lat))

	var steps []ladderStep
	for i, rate := range c3Serve.ladder {
		id := c.tr.open(fmt.Sprintf("ladder.%d", i+1), 0)
		runtime.GC()
		r, err := ix.queries(c, fmt.Sprintf("c3-ladder-%d", i), rate, warm, dur, perConn(rate, warm+dur)).run()
		c.tr.close(id)
		if err != nil {
			return err
		}
		tallyLoad(c, fmt.Sprintf("ladder step %v/s", rate), r)
		steps = append(steps, ladderStep{rate: rate, r: r})
	}
	reportLadder(c, c3Serve, steps)

	runtime.GC()
	id := c.tr.open("leg.reference", 0)
	ref, err := ix.queries(c, "c3-reference", c3Serve.refRate, warm, dur, perConn(c3Serve.refRate, warm+dur)).run()
	c.tr.close(id)
	if err != nil {
		return err
	}
	tallyLoad(c, "reference", ref)
	c.res.set("loadgen.late_ms", ms(ref.lateP99()), len(ref.late))

	runtime.GC()
	id = c.tr.open("leg.reference.traced", 0)
	l := ix.queries(c, "c3-reference", c3Serve.refRate, warm, dur, perConn(c3Serve.refRate, warm+dur))
	l.tr, l.parent = c.tr, id
	traced, err := l.run()
	c.tr.close(id)
	if err != nil {
		return err
	}
	tallyLoad(c, "reference (traced)", traced)
	refP50 := quantile(sortDurations(ref.lat), 0.5)
	c.res.set("trace.overhead", float64(quantile(sortDurations(traced.lat), 0.5))/float64(refP50), len(traced.lat))

	id = c.tr.open("capacity", 0)
	defer c.tr.close(id)
	l = ix.queries(c, "c3-capacity", 0, warm, dur, 1<<16)
	l.cyclic = true
	return profileCapacity(c, l)
}
