package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/c3"
)

func TestStartServeReplayShutdown(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-synthetic", "500", "-seed", "9", "-bucket-bits", "10"})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := start(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Store.Len() != 500 {
		t.Fatalf("indexed %d, want 500", inst.Store.Len())
	}

	var out strings.Builder
	rcfg := cfg
	rcfg.replay = true
	rcfg.addr = inst.Addr
	rcfg.queries = 200
	rcfg.conns = 4
	if err := runReplay(rcfg, &out); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "Serving latency (live fleet)") ||
		!strings.Contains(out.String(), "achieved ") {
		t.Fatalf("replay output missing sections:\n%s", out.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := inst.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestParseFlagsRejectsEmptyIndex(t *testing.T) {
	if _, err := parseFlags(nil); err == nil {
		t.Fatal("no index source should be rejected")
	}
	if _, err := parseFlags([]string{"-replay"}); err != nil {
		t.Fatalf("-replay needs no index source: %v", err)
	}
}

func TestServeCredsAndVariants(t *testing.T) {
	dir := t.TempDir()
	creds := dir + "/creds.txt"
	leak := "# a leak file\nalice@example.com pw1\n# note\n\nbob@example.com pw2\n"
	if err := os.WriteFile(creds, []byte(leak), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-creds", creds, "-variants"})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := start(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if !inst.Store.Contains(c3.Hash("alice@example.com", "pw1")) {
		t.Fatal("creds-file credential missing")
	}
	if !inst.Store.Contains(c3.Hash("alice@example.com", "pw11")) {
		t.Fatal("variant not indexed with -variants")
	}
	if !inst.Store.Contains(c3.Hash("bob@example.com", "pw2")) {
		t.Fatal("credential after a comment line missing")
	}
	if inst.Store.Contains(c3.Hash("#", "note")) {
		t.Fatal("comment line indexed as a credential")
	}
}
