package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"

	"idl"
)

// Shared /debug registration. Both HTTP fronts — cmd/idl's embedded
// -debug-addr server and idld's serving mux — mount the same
// observability endpoints through RegisterDebug, so the two servers
// cannot drift: a handler added here appears on both.

// publishOnce guards the process-global expvar name: expvar.Publish
// panics on duplicates, and tests may build several handlers.
var publishOnce sync.Once

// RegisterDebug mounts the observability endpoints for db on mux:
//
//	/debug/metrics  the metrics registry as JSON (?format=table for the
//	                \stats rendering)
//	/debug/events   the flight recorder as JSON (?format=text for the
//	                \flightrec rendering)
//	/debug/health   the rolling-window health report; 503 when metrics
//	                are off
//	/debug/slo      SLO statuses + overall health; 503 when metrics are
//	                off
//	/debug/traces   retained span trees; 503 when tracing is off
//	/debug/statements        statement digests, heaviest first (?by=
//	                         calls|p99|rows|time, ?k=n); 503 when
//	                         insights are off
//	/debug/statements/<fp>   one digest with its captured slow-query
//	                         exemplars; 404 on unknown fingerprints
//	/debug/mvcc     the engine's snapshot version chain: live versions,
//	                pinned epochs, retained bytes, GC counters
//	/debug/vars     expvar (includes idl.metrics and Go runtime stats)
//	/debug/pprof/   the standard pprof profiles
func RegisterDebug(mux *http.ServeMux, db *idl.DB) {
	publishOnce.Do(func() {
		expvar.Publish("idl.metrics", expvar.Func(func() any {
			return db.Metrics().Snapshot()
		}))
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "table" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, db.Metrics().Snapshot().Table())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		db.Metrics().WriteJSON(w)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			db.DumpEvents(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(db.Events())
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, r *http.Request) {
		h, err := db.Health()
		if err != nil {
			debugError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h)
	})
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		h, err := db.Health()
		if err != nil {
			debugError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Healthy bool            `json:"healthy"`
			SLOs    []idl.SLOStatus `json:"slos"`
		}{Healthy: h.Healthy(), SLOs: h.SLOs})
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		// Probe first so a tracing-off error becomes a clean 503
		// instead of a half-written 200 body.
		if _, err := db.Traces(); err != nil {
			debugError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		db.ExportTraces(w)
	})
	mux.HandleFunc("/debug/statements", func(w http.ResponseWriter, r *http.Request) {
		k := 0
		if v := r.URL.Query().Get("k"); v != "" {
			fmt.Sscanf(v, "%d", &k)
		}
		by := r.URL.Query().Get("by")
		if by == "" {
			by = "time"
		}
		digests, err := db.TopStatements(k, by)
		if err != nil {
			debugError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Statements []idl.StatementDigest `json:"statements"`
			Dropped    uint64                `json:"dropped"`
		}{Statements: digests, Dropped: db.StatementsDropped()})
	})
	mux.HandleFunc("/debug/statements/", func(w http.ResponseWriter, r *http.Request) {
		fp := r.URL.Path[len("/debug/statements/"):]
		d, exemplars, err := db.Statement(fp)
		if err != nil {
			// Off-state is a 503 like the other endpoints; an unknown or
			// malformed fingerprint on a live store is a plain 404.
			if !db.InsightsEnabled() {
				debugError(w, err)
				return
			}
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Digest    idl.StatementDigest     `json:"digest"`
			Exemplars []idl.StatementExemplar `json:"exemplars"`
		}{Digest: d, Exemplars: exemplars})
	})
	mux.HandleFunc("/debug/mvcc", func(w http.ResponseWriter, r *http.Request) {
		// Native engine counters — served even when metrics are off.
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(db.MVCCStats())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// DebugHandler serves the observability endpoints for one DB on a
// fresh mux — the embedded -debug-addr server's handler.
func DebugHandler(db *idl.DB) http.Handler {
	mux := http.NewServeMux()
	RegisterDebug(mux, db)
	return mux
}

// debugError reports a disabled-subsystem error as JSON with 503, so
// scrapers distinguish "off" from "broken".
func debugError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}
