package idl

import (
	"fmt"
	"io"
	"time"

	"idl/internal/qlog"
)

// Temporal observability facade (see internal/qlog). Every query,
// update request, program call, rule/clause definition, federation sync
// and breaker transition emits one Event. Three sinks consume them:
//
//   - the flight recorder: a lock-free ring of the last N events,
//     always on (DumpEvents, the REPL's \flightrec, /debug/events);
//   - the structured event log: one JSON line per event via log/slog,
//     with a slow-query threshold promoting events to WARN;
//   - the workload journal: an append-only, versioned .idlog file of
//     replayable statements plus their canonical answers, consumed by
//     idlload -check.

type (
	// Event is one record of engine activity in the flight recorder or
	// event log.
	Event = qlog.Event
	// JournalHeader is the first line of a .idlog workload journal.
	JournalHeader = qlog.Header
	// JournalRecord is one replayable statement in a journal, with the
	// answer the original run observed.
	JournalRecord = qlog.Record
	// ExecSummary is a journal record's update-outcome counters.
	ExecSummary = qlog.ExecSummary
)

// Event kinds as they appear in Event.Kind and JournalRecord.Kind.
const (
	EventQuery   = qlog.KindQuery
	EventExec    = qlog.KindExec
	EventCall    = qlog.KindCall
	EventRule    = qlog.KindRule
	EventClause  = qlog.KindClause
	EventSync    = qlog.KindSync
	EventBreaker = qlog.KindBreaker
)

// Events returns a point-in-time snapshot of the flight recorder,
// oldest first.
func (db *DB) Events() []*Event {
	return db.rec.Events()
}

// DumpEvents writes a human rendering of the flight recorder to w.
func (db *DB) DumpEvents(w io.Writer) {
	db.rec.Dump(w, false)
}

// DumpEventsRedacted is DumpEvents with timing-dependent fields
// blanked, for byte-stable output (golden tests, diffs across runs).
func (db *DB) DumpEventsRedacted(w io.Writer) {
	db.rec.Dump(w, true)
}

// SetFlightRecorderSize resizes the flight recorder to hold the last n
// events (n <= 0 turns it off). The default is qlog.DefaultRingSize.
// Resizing discards currently buffered events.
func (db *DB) SetFlightRecorderSize(n int) {
	db.rec.SetRingSize(n)
}

// FlightRecorderSize returns the flight recorder's capacity (0 = off).
func (db *DB) FlightRecorderSize() int {
	return db.rec.RingCap()
}

// SetEventLog attaches the structured event log: one JSON line per
// event to w (nil detaches). Slow and failed operations log at WARN and
// ERROR respectively.
func (db *DB) SetEventLog(w io.Writer) {
	db.rec.SetLogger(w)
}

// SetSlowQueryThreshold marks events slower than d as slow, promoting
// their log lines to WARN (d <= 0 disables the threshold).
func (db *DB) SetSlowQueryThreshold(d time.Duration) {
	db.rec.SetSlowThreshold(d)
}

// SetAutoDump makes the DB dump the flight recorder to w whenever an
// operation fails or a member's circuit breaker opens (nil disables).
func (db *DB) SetAutoDump(w io.Writer) {
	db.rec.SetAutoDump(w)
}

// StartJournal begins capturing the workload to an append-only .idlog
// journal at path: every query, update request, program call and
// rule/clause definition is recorded with its canonical answer, ready
// for idlload -check. meta is free-form provenance stored in the journal
// header (replay uses it to rebuild the original environment). An
// existing journal at path is validated and appended to. Journaling
// replaces any journal previously started on this DB.
func (db *DB) StartJournal(path string, meta map[string]string) error {
	j, err := qlog.Create(path, meta)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if old := db.rec.Journal(); old != nil {
		db.rec.SetJournal(nil)
		if cerr := old.Close(); cerr != nil {
			// The new journal is active either way, but the old capture's
			// write error must not vanish: the file may be incomplete.
			db.rec.SetJournal(j)
			return fmt.Errorf("idl: close previous journal: %w", cerr)
		}
	}
	db.rec.SetJournal(j)
	return nil
}

// CloseJournal stops journaling and flushes/closes the journal file.
// It returns the journal's sticky write error, if any; a DB without an
// active journal returns nil.
func (db *DB) CloseJournal() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	j := db.rec.Journal()
	if j == nil {
		return nil
	}
	db.rec.SetJournal(nil)
	return j.Close()
}

// JournalPath returns the active journal's file path ("" when not
// journaling).
func (db *DB) JournalPath() string {
	return db.rec.Journal().Path()
}

// ReadJournal loads a .idlog journal: its header and all records.
func ReadJournal(path string) (*JournalHeader, []JournalRecord, error) {
	return qlog.ReadJournal(path)
}
