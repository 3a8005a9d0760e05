package livefleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/snapshot"
	"repro/internal/webmail"
)

// Credential is one honey-account login the load generator replays.
type Credential struct {
	Address  string
	Password string
}

// WriteCredentials emits one "address password" line per credential —
// the leak-file format webmaild -creds writes and that loadgen and
// c3d -creds read through ReadCredentials.
func WriteCredentials(w io.Writer, creds []Credential) error {
	bw := bufio.NewWriter(w)
	for _, c := range creds {
		if _, err := fmt.Fprintf(bw, "%s %s\n", c.Address, c.Password); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCredentials parses "address password" lines; blank lines and
// #-comments are skipped.
func ReadCredentials(r io.Reader) ([]Credential, error) {
	var out []Credential
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("livefleet: credentials line %d: want \"address password\", got %q", n, line)
		}
		out = append(out, Credential{Address: fields[0], Password: fields[1]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("livefleet: read credentials: %w", err)
	}
	return out, nil
}

// BootService streams a snapshot file and restores into a fresh
// service exactly the accounts that webmail.PartitionIndex places on
// shard part of parts — the same placement the router uses, so a
// login routed to this shard always finds its account. It returns the
// service and the restored accounts' credentials, sorted by address
// (the shard's contribution to a fleet-wide leak file). parts == 1
// restores everything, which is how a single-process webmaild boots.
func BootService(path string, part, parts int, cfg webmail.Config) (*webmail.Service, []Credential, error) {
	if parts <= 0 {
		return nil, nil, fmt.Errorf("livefleet: parts must be positive, got %d", parts)
	}
	if part < 0 || part >= parts {
		return nil, nil, fmt.Errorf("livefleet: partition %d out of range [0,%d)", part, parts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("livefleet: %w", err)
	}
	defer f.Close()
	dec, err := snapshot.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, nil, err
	}
	svc := webmail.NewService(cfg)
	var creds []Credential
	var a snapshot.Account
	for {
		if err := dec.Next(&a); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, nil, err
		}
		if webmail.PartitionIndex(a.Address, parts) != part {
			continue
		}
		if err := svc.RestoreAccount(&a); err != nil {
			return nil, nil, fmt.Errorf("livefleet: restore %s: %w", a.Address, err)
		}
		creds = append(creds, Credential{Address: a.Address, Password: a.Password})
	}
	sort.Slice(creds, func(i, j int) bool { return creds[i].Address < creds[j].Address })
	return svc, creds, nil
}
