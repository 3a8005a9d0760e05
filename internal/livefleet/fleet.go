package livefleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/snapshot"
	"repro/internal/webmail"
)

// Credential is one honey-account login the load generator replays.
type Credential struct {
	Address  string
	Password string
}

// WriteCredentials emits one "address password" line per credential —
// the leak-file format cmd/leakctl produces and cmd/loadgen consumes.
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
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("livefleet: bad credential line %q", line)
		}
		out = append(out, Credential{Address: fields[0], Password: fields[1]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("livefleet: read credentials: %w", err)
	}
	return out, nil
}

// exportFromSnapshot converts one snapshot account into the service's
// restore form, appending its messages to msgs.
func exportFromSnapshot(a *snapshot.Account, msgs []webmail.MessageExport) webmail.AccountExport {
	exp := webmail.AccountExport{
		Address:  a.Address,
		Password: a.Password,
		Owner:    a.Owner,
		SendFrom: a.SendFrom,
		NextID:   a.NextID,
		Messages: msgs,
	}
	for _, m := range a.Messages {
		exp.Messages = append(exp.Messages, webmail.MessageExport{
			ID: m.ID, Folder: m.Folder,
			From: m.From, To: m.To, Subject: m.Subject, Body: m.Body,
			Date: time.Unix(0, m.DateNS).UTC(),
			Read: m.Read, Starred: m.Starred,
			Labels: m.Labels,
		})
	}
	return exp
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
	var exp webmail.AccountExport // message buffer, reused across accounts
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
		exp = exportFromSnapshot(&a, exp.Messages[:0])
		if err := svc.RestoreAccountIn(webmail.PartitionIndex(a.Address, svc.Partitions()), exp); err != nil {
			return nil, nil, fmt.Errorf("livefleet: restore %s: %w", a.Address, err)
		}
		creds = append(creds, Credential{Address: a.Address, Password: a.Password})
	}
	sort.Slice(creds, func(i, j int) bool { return creds[i].Address < creds[j].Address })
	return svc, creds, nil
}

// SplitSnapshotFile shards one snapshot file into parts per-shard
// files named by pattern (which must contain one %d verb). Each output
// is a complete, self-verifying v4 snapshot holding only that shard's
// accounts, with the meta carried over verbatim — shipping shard i's
// file to shard i's host is the fleet's state-distribution step. Two
// streaming passes: the first counts accounts per shard (the encoder
// declares its count up front), the second routes them; neither holds
// more than one account in memory.
func SplitSnapshotFile(src string, parts int, pattern string) ([]string, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("livefleet: parts must be positive, got %d", parts)
	}
	if !strings.Contains(pattern, "%d") {
		return nil, fmt.Errorf("livefleet: pattern %q needs a %%d verb", pattern)
	}
	counts := make([]int, parts)
	err := scanSnapshot(src, func(a *snapshot.Account) error {
		counts[webmail.PartitionIndex(a.Address, parts)]++
		return nil
	})
	if err != nil {
		return nil, err
	}

	paths := make([]string, parts)
	files := make([]*os.File, parts)
	writers := make([]*bufio.Writer, parts)
	encs := make([]*snapshot.Encoder, parts)
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	f, err := os.Open(src)
	if err != nil {
		return nil, fmt.Errorf("livefleet: %w", err)
	}
	defer f.Close()
	dec, err := snapshot.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	meta := *dec.Meta() // shallow copy; Accounts is nil in decoder meta
	for i := range encs {
		paths[i] = fmt.Sprintf(pattern, i)
		files[i], err = os.OpenFile(paths[i], os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("livefleet: %w", err)
		}
		writers[i] = bufio.NewWriterSize(files[i], 1<<20)
		st := meta
		encs[i], err = snapshot.NewEncoder(writers[i], &st, counts[i])
		if err != nil {
			return nil, err
		}
	}
	var a snapshot.Account
	for {
		if err := dec.Next(&a); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		if err := encs[webmail.PartitionIndex(a.Address, parts)].WriteAccount(&a); err != nil {
			return nil, err
		}
	}
	for i := range encs {
		if err := encs[i].Close(); err != nil {
			return nil, err
		}
		if err := writers[i].Flush(); err != nil {
			return nil, fmt.Errorf("livefleet: %w", err)
		}
		if err := files[i].Close(); err != nil {
			files[i] = nil
			return nil, fmt.Errorf("livefleet: %w", err)
		}
		files[i] = nil
	}
	return paths, nil
}

// scanSnapshot streams every account of a snapshot file through visit.
func scanSnapshot(path string, visit func(*snapshot.Account) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("livefleet: %w", err)
	}
	defer f.Close()
	dec, err := snapshot.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return err
	}
	var a snapshot.Account
	for {
		if err := dec.Next(&a); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if err := visit(&a); err != nil {
			return err
		}
	}
}
