package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// journalEntry is one line of the crash-safe run journal: a "start"
// when a run is admitted (carrying its spec, so an interrupted run is
// reproducible after restart), an "assign" for every cluster shard
// placement (failovers included), an "epoch" for every barrier a
// sharded run clears (carrying the global load vector — the replay
// script a restarted coordinator resumes from), and an "end" when the
// run reaches a terminal state. A run that has a start but no end at
// server boot was in flight when the previous process died; recovery
// marks it failed — or, for sharded runs on a coordinator, re-queues
// it from its last journaled barrier, since the journaled spec and
// load history re-execute byte-identically.
type journalEntry struct {
	Op    string    `json:"op"` // "start" | "assign" | "epoch" | "end"
	ID    string    `json:"id"`
	State string    `json:"state,omitempty"` // terminal state, end entries only
	Error string    `json:"error,omitempty"`
	Spec  *wireSpec `json:"spec,omitempty"` // start entries only

	// Shard assignment fields ("assign" entries only): which member
	// took which shard, from which epoch, and whether this placement
	// was a failover. Epoch doubles as the barrier index on "epoch"
	// entries.
	Shard      *int   `json:"shard,omitempty"`
	Member     string `json:"member,omitempty"`
	Addr       string `json:"addr,omitempty"`
	Epoch      int    `json:"epoch,omitempty"`
	Reassigned bool   `json:"reassigned,omitempty"`

	// Loads is the global per-cell load vector at the barrier ("epoch"
	// entries only).
	Loads []int `json:"loads,omitempty"`
}

// journal is an append-only JSON-lines file. Every record is synced so
// an abrupt process death loses at most the entry being written; a
// torn trailing line is tolerated (and overwritten) on recovery.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal replays an existing journal file (returning its entries
// in order) and opens it for appending. A missing file is an empty
// journal, not an error. A torn final line (from a crash mid-write) is
// truncated away so the records appended by this process land on a
// well-formed prefix.
func openJournal(path string) (*journal, []journalEntry, error) {
	var entries []journalEntry
	validLen := int64(0)
	if data, err := os.ReadFile(path); err == nil {
		rest := data
		for len(rest) > 0 {
			nl := bytes.IndexByte(rest, '\n')
			if nl < 0 {
				break // newline never landed: torn tail
			}
			line := rest[:nl]
			if len(line) > 0 {
				var e journalEntry
				if err := json.Unmarshal(line, &e); err != nil {
					break // garbled record: treat it and everything after as torn
				}
				entries = append(entries, e)
			}
			validLen += int64(nl) + 1
			rest = rest[nl+1:]
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &journal{f: f}, entries, nil
}

// record appends one entry and syncs. Errors are returned for the
// caller to log — journal failure must never fail the run itself.
func (j *journal) record(e journalEntry) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close releases the journal file.
func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}
