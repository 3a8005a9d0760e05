package c3

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/snapshot"
)

// BuildFromSnapshotFile streams a honeynet checkpoint and indexes
// every decoy account's credential, tagged with the snapshot's start
// time. The decoder hands accounts out one at a time, so indexing a
// million-account fleet holds one account block in memory, not the
// fleet.
func BuildFromSnapshotFile(path string, store *Store) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("c3: %w", err)
	}
	defer f.Close()
	dec, err := snapshot.NewDecoder(bufio.NewReader(f))
	if err != nil {
		return 0, err
	}
	at := time.Unix(0, dec.Meta().Config.StartNS)
	n := 0
	var a snapshot.Account
	for {
		if err := dec.Next(&a); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return n, err
		}
		store.Add(a.Address, a.Password, "snapshot", at)
		n++
	}
	return n, nil
}
