package qlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Journal file format (".idlog"): JSON lines, append-only, versioned.
// The first line is a Header identifying the format and carrying
// free-form metadata (enough for idlload -check to rebuild the workload's
// environment — schema seeds, chaos seeds, federation settings). Every
// subsequent line is one Record: a replayable statement together with
// the answer the original run observed, rendered canonically so replay
// comparison is a byte comparison.
const (
	FormatName    = "idlog"
	FormatVersion = 1
)

// Header is the first line of a journal file.
type Header struct {
	Format  string            `json:"format"`
	Version int               `json:"version"`
	Meta    map[string]string `json:"meta,omitempty"`
}

// ExecSummary mirrors the engine's update-request outcome counters; it
// is the journal's serializable copy (qlog cannot import internal/core).
type ExecSummary struct {
	ElemsInserted int `json:"elems_inserted,omitempty"`
	ElemsDeleted  int `json:"elems_deleted,omitempty"`
	AttrsCreated  int `json:"attrs_created,omitempty"`
	AttrsDeleted  int `json:"attrs_deleted,omitempty"`
	ValuesSet     int `json:"values_set,omitempty"`
	Bindings      int `json:"bindings,omitempty"`
}

// Record is one replayable statement with its observed outcome.
type Record struct {
	Seq       int          `json:"seq"` // 0-based position in the journal
	Kind      string       `json:"kind"`
	Text      string       `json:"text"`
	Digest    string       `json:"digest,omitempty"`
	NS        int64        `json:"ns"` // original duration, for perf-mode comparison
	Rows      int          `json:"rows,omitempty"`
	Answer    string       `json:"answer,omitempty"` // canonical Answer rendering (sorted)
	Exec      *ExecSummary `json:"exec,omitempty"`
	Degraded  string       `json:"degraded,omitempty"`   // deterministic degraded-report rendering
	Workers   int          `json:"workers,omitempty"`    // parallelism degree the statement ran under (0 = sequential)
	PlanCache string       `json:"plan_cache,omitempty"` // plan-cache outcome: hit / stale / miss / cold
	TraceID   string       `json:"trace_id,omitempty"`   // facade-minted trace ID joining span trees and WAL commit spans
	Err       string       `json:"err,omitempty"`
}

// Journal is an open journal file. Appends are serialized by a mutex
// and flushed per record so a crash loses at most the in-flight line;
// write errors are sticky and surfaced by Err/Close.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	n    int // records written (including pre-existing ones when appending)
	path string
	err  error
}

// Create opens path for journaling. A new or empty file gets a fresh
// header; an existing journal is validated and appended to, continuing
// its sequence numbering.
func Create(path string, meta map[string]string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, path: path}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size() == 0 {
		hdr, err := json.Marshal(Header{Format: FormatName, Version: FormatVersion, Meta: meta})
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		// Appending: validate the header and count existing records so
		// new sequence numbers continue where the file left off.
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		if !sc.Scan() {
			f.Close()
			return nil, fmt.Errorf("qlog: %s: missing journal header", path)
		}
		if err := parseHeader(sc.Bytes(), path); err != nil {
			f.Close()
			return nil, err
		}
		for sc.Scan() {
			if len(sc.Bytes()) > 0 {
				j.n++
			}
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return nil, err
		}
	}
	j.w = bufio.NewWriter(f)
	return j, nil
}

func parseHeader(line []byte, path string) error {
	var hdr Header
	if err := json.Unmarshal(line, &hdr); err != nil {
		return fmt.Errorf("qlog: %s: bad journal header: %w", path, err)
	}
	if hdr.Format != FormatName {
		return fmt.Errorf("qlog: %s: not an idlog journal (format %q)", path, hdr.Format)
	}
	if hdr.Version != FormatVersion {
		return fmt.Errorf("qlog: %s: unsupported journal version %d (want %d)", path, hdr.Version, FormatVersion)
	}
	return nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Records returns how many records the journal holds.
func (j *Journal) Records() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Append writes one record, assigning its sequence number.
func (j *Journal) Append(rec Record) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	rec.Seq = j.n
	line, err := json.Marshal(rec)
	if err != nil {
		j.err = err
		return err
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		j.err = err
		return err
	}
	if err := j.w.Flush(); err != nil {
		j.err = err
		return err
	}
	j.n++
	return nil
}

// Err returns the sticky write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes, fsyncs and closes the journal file: a captured workload
// survives power loss once Close returns. The sticky write error, flush,
// sync and close failures all surface (first one wins).
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ferr := j.w.Flush()
	serr := j.f.Sync()
	cerr := j.f.Close()
	for _, err := range []error{j.err, ferr, serr, cerr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadJournal loads a journal file: header plus all records, in order.
func ReadJournal(path string) (*Header, []Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, nil, fmt.Errorf("qlog: %s: missing journal header", path)
	}
	var hdr Header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, nil, fmt.Errorf("qlog: %s: bad journal header: %w", path, err)
	}
	if err := parseHeader(sc.Bytes(), path); err != nil {
		return nil, nil, err
	}
	var recs []Record
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, fmt.Errorf("qlog: %s: record %d: %w", path, len(recs), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return &hdr, recs, nil
}
