// Package server is the idld wire protocol: an HTTP/JSON front end
// over the idl.DB facade for multi-tenant serving, with per-connection
// sessions holding server-side prepared statements, admission control
// (max-inflight shedding with per-tenant fairness), request deadlines
// threaded into the engine's context plumbing, trace-ID adoption, and
// graceful drain.
//
// Endpoints (request/response bodies in wire.go):
//
//	POST /v1/query           evaluate a read-only query
//	POST /v1/exec            run an update request or program call
//	POST /v1/rule            register a view rule
//	POST /v1/clause          register an update-program clause
//	POST /v1/prepare         compile a prepared statement into a session
//	POST /v1/exec-prepared   execute a session's prepared statement
//	POST /v1/close-prepared  drop a prepared statement
//	GET  /v1/session         describe the caller's session
//	GET  /v1/health          the DB's rolling-window health report
//	GET  /healthz            liveness/readiness (503 while draining)
//	     /debug/...          the shared observability endpoints
//	                         (Config.Debug; see RegisterDebug)
//
// Request state machine: a request is refused while draining (503,
// Connection: close), shed when the global or per-tenant inflight bound
// is reached (429, Retry-After), and otherwise admitted — it then runs
// under a deadline (the server default, lowered per-request by
// X-Timeout-Ms) whose expiry surfaces as 504. Session state machine:
// Prepare without X-Session-Id mints a session (returned in the
// response header); subsequent requests address it with the header,
// scoped to the tenant; sessions expire after Config.SessionIdle of
// disuse. Drain sequence: BeginDrain closes the admission gate, Drain
// waits for inflight work to reach zero and then checkpoints the WAL
// (when one is attached) so a restart replays nothing.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"idl"
	"idl/internal/federation"
	"idl/internal/qlog"
)

// maxBodyBytes bounds a request body; statements are small.
const maxBodyBytes = 1 << 20

// Config tunes one Server. The zero value takes production defaults.
// It has no latency or SLO setting: the server times no statement, and
// the statement SLOs engine.{query,exec,call} are the DB's (DB.SetSLO;
// idld's -slo-target applies it).
type Config struct {
	// MaxInflight bounds admitted requests across all tenants
	// (default 64). Excess requests shed with 429, never queue.
	MaxInflight int
	// TenantInflight bounds one tenant's admitted requests
	// (default MaxInflight/4, minimum 1) so a single tenant cannot
	// hold every slot.
	TenantInflight int
	// RequestTimeout is the default per-request deadline (default 5s).
	RequestTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 30s).
	MaxTimeout time.Duration
	// SessionIdle expires sessions unused this long (default 10m).
	SessionIdle time.Duration
	// MaxSessions bounds the session table (default 1024).
	MaxSessions int
	// DefaultTenant names requests without X-Tenant (default "public").
	DefaultTenant string
	// Debug mounts the shared /debug/ observability endpoints on the
	// server's mux (the same handlers cmd/idl's -debug-addr serves).
	Debug bool
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.TenantInflight <= 0 {
		c.TenantInflight = max(1, c.MaxInflight/4)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.SessionIdle <= 0 {
		c.SessionIdle = 10 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.DefaultTenant == "" {
		c.DefaultTenant = "public"
	}
	return c
}

// Server fronts one DB. Create with New, serve Handler, stop with
// Drain. Safe for concurrent use.
type Server struct {
	db       *idl.DB
	cfg      Config
	reg      *idl.MetricsRegistry
	adm      *admission
	sessions *sessionTable
	mux      *http.ServeMux
}

// New builds a server over db. Serving turns metrics on: admission
// decisions, health and SLO reports and the load harness all read the
// registry. The server times no statement of its own: the facade's op
// times each one once, served or embedded, and feeds every latency
// window and SLO tracker from that one reading.
func New(db *idl.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:       db,
		cfg:      cfg,
		reg:      db.Metrics(),
		adm:      newAdmission(cfg.MaxInflight, cfg.TenantInflight),
		sessions: newSessionTable(cfg.SessionIdle, cfg.MaxSessions),
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/query", s.handle(true, s.handleQuery))
	s.mux.HandleFunc("POST /v1/exec", s.handle(true, s.handleExec))
	s.mux.HandleFunc("POST /v1/rule", s.handle(true, s.handleRule))
	s.mux.HandleFunc("POST /v1/clause", s.handle(true, s.handleClause))
	s.mux.HandleFunc("POST /v1/prepare", s.handle(true, s.handlePrepare))
	s.mux.HandleFunc("POST /v1/exec-prepared", s.handle(true, s.handleExecPrepared))
	s.mux.HandleFunc("POST /v1/close-prepared", s.handle(true, s.handleClosePrepared))
	s.mux.HandleFunc("GET /v1/session", s.handle(false, s.handleSession))
	s.mux.HandleFunc("GET /v1/health", s.handle(false, s.handleHealth))
	s.mux.HandleFunc("GET /healthz", s.handle(false, s.handleHealthz))
	if cfg.Debug {
		RegisterDebug(s.mux, db)
	}
	return s
}

// Handler returns the server's mux.
func (s *Server) Handler() http.Handler { return s.mux }

// DB returns the served database.
func (s *Server) DB() *idl.DB { return s.db }

// Inflight reports admitted requests currently executing.
func (s *Server) Inflight() int { return s.adm.current() }

// Sessions reports the live session count.
func (s *Server) Sessions() int { return s.sessions.len() }

// SweepSessions expires sessions idle past Config.SessionIdle as of
// now, returning how many were dropped. cmd/idld runs this on a timer;
// session creation also sweeps when the table is full.
func (s *Server) SweepSessions(now time.Time) int {
	n := s.sessions.sweep(now)
	if n > 0 {
		s.reg.Counter("server.sessions.expired").Add(uint64(n))
	}
	return n
}

// BeginDrain closes the admission gate: every subsequent request is
// refused with 503 + Connection: close. Idempotent.
func (s *Server) BeginDrain() { s.adm.beginDrain() }

// Draining reports whether the admission gate is closed.
func (s *Server) Draining() bool { return s.adm.drainingNow() }

// Drain performs the graceful-drain sequence: close the admission gate,
// wait until every admitted request has finished (bounded by ctx), then
// checkpoint the WAL when one is attached so a restart replays nothing.
// Inflight requests complete normally — drain never cancels work.
func (s *Server) Drain(ctx context.Context) error {
	s.adm.beginDrain()
	for s.adm.current() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %d requests still inflight: %w", s.adm.current(), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if _, ok := s.db.WALStatus(); ok {
		if _, err := s.db.Checkpoint(); err != nil {
			return fmt.Errorf("server: drain checkpoint: %w", err)
		}
	}
	return nil
}

// handlerFunc is one endpoint's logic: it returns the status and body;
// the wrapper owns admission, deadlines, headers, metrics and encoding.
type handlerFunc func(ctx context.Context, w http.ResponseWriter, r *http.Request, tenant string) (int, any)

// handle wraps an endpoint with the shared request machinery. admit
// routes the request through the admission gate (and the drain
// refusal); probe endpoints skip it so load balancers can watch a
// saturated or draining server.
func (s *Server) handle(admit bool, fn handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get(HeaderTenant)
		if tenant == "" {
			tenant = s.cfg.DefaultTenant
		}
		if !validTenant(tenant) {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("server: invalid tenant %q", tenant)})
			return
		}
		s.reg.Counter("server.requests").Inc()
		s.reg.Counter("server.tenant." + tenant + ".requests").Inc()
		if tid := r.Header.Get(HeaderTrace); tid != "" {
			w.Header().Set(HeaderTrace, tid)
		}
		if admit {
			switch s.adm.tryAcquire(tenant) {
			case refuseDraining:
				s.reg.Counter("server.drain_rejects").Inc()
				w.Header().Set("Connection", "close")
				writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server: draining, not accepting new requests"})
				return
			case shedServer:
				s.shed(w, tenant, "server at max inflight")
				return
			case shedTenant:
				s.shed(w, tenant, fmt.Sprintf("tenant %q at max inflight", tenant))
				return
			}
			defer s.adm.release(tenant)
		}
		ctx, cancel := s.requestContext(r)
		defer cancel()
		status, body := fn(ctx, w, r, tenant)
		if admit && status >= http.StatusBadRequest {
			s.reg.Counter("server.errors").Inc()
		}
		writeJSON(w, status, body)
	}
}

// shed refuses one request with 429 + Retry-After.
func (s *Server) shed(w http.ResponseWriter, tenant, reason string) {
	s.reg.Counter("server.shed").Inc()
	s.reg.Counter("server.tenant." + tenant + ".shed").Inc()
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "server: " + reason + ", retry later"})
}

// requestContext derives the request's engine context: the caller's
// trace ID (adopted by the facade instead of minting) and the request
// deadline — the server default, lowered or raised per-request by
// X-Timeout-Ms up to Config.MaxTimeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if tid := r.Header.Get(HeaderTrace); tid != "" {
		ctx = qlog.WithTraceID(ctx, tid)
	}
	d := s.cfg.RequestTimeout
	if v := r.Header.Get(HeaderTimeout); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			d = min(time.Duration(ms)*time.Millisecond, s.cfg.MaxTimeout)
		}
	}
	return context.WithTimeout(ctx, d)
}

func (s *Server) handleQuery(ctx context.Context, _ http.ResponseWriter, r *http.Request, _ string) (int, any) {
	stmt, err := decode(r, "stmt")
	if err != nil {
		return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
	}
	ans, err := s.db.QueryCtx(ctx, stmt)
	if err != nil {
		return statusFor(err), ErrorResponse{Error: err.Error()}
	}
	return http.StatusOK, answerBody{ans}
}

func (s *Server) handleExec(ctx context.Context, _ http.ResponseWriter, r *http.Request, _ string) (int, any) {
	stmt, err := decode(r, "stmt")
	if err != nil {
		return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
	}
	info, err := s.db.ExecCtx(ctx, stmt)
	if err != nil {
		return statusFor(err), ErrorResponse{Error: err.Error()}
	}
	return http.StatusOK, ExecResponse{Exec: qlog.ExecSummary{
		ElemsInserted: info.ElemsInserted,
		ElemsDeleted:  info.ElemsDeleted,
		AttrsCreated:  info.AttrsCreated,
		AttrsDeleted:  info.AttrsDeleted,
		ValuesSet:     info.ValuesSet,
		Bindings:      info.Bindings,
	}}
}

func (s *Server) handleRule(_ context.Context, _ http.ResponseWriter, r *http.Request, _ string) (int, any) {
	stmt, err := decode(r, "stmt")
	if err != nil {
		return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
	}
	if err := s.db.DefineView(stmt); err != nil {
		return statusFor(err), ErrorResponse{Error: err.Error()}
	}
	return http.StatusOK, OKResponse{OK: true}
}

func (s *Server) handleClause(_ context.Context, _ http.ResponseWriter, r *http.Request, _ string) (int, any) {
	stmt, err := decode(r, "stmt")
	if err != nil {
		return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
	}
	if err := s.db.DefineProgram(stmt); err != nil {
		return statusFor(err), ErrorResponse{Error: err.Error()}
	}
	return http.StatusOK, OKResponse{OK: true}
}

func (s *Server) handlePrepare(_ context.Context, w http.ResponseWriter, r *http.Request, tenant string) (int, any) {
	stmt, err := decode(r, "stmt")
	if err != nil {
		return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
	}
	var sess *session
	if sid := r.Header.Get(HeaderSession); sid != "" {
		if sess = s.sessions.get(tenant, sid, time.Now()); sess == nil {
			return http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("server: unknown session %q for tenant %q", sid, tenant)}
		}
	} else {
		var err error
		if sess, err = s.sessions.create(tenant, time.Now()); err != nil {
			return http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()}
		}
	}
	p, err := s.db.Prepare(stmt)
	if err != nil {
		return statusFor(err), ErrorResponse{Error: err.Error()}
	}
	w.Header().Set(HeaderSession, sess.id)
	return http.StatusOK, PrepareResponse{ID: sess.put(p), Text: p.Text(), Session: sess.id}
}

// sessionOf resolves the request's session header for endpoints that
// require an existing session.
func (s *Server) sessionOf(r *http.Request, tenant string) (*session, int, any) {
	sid := r.Header.Get(HeaderSession)
	if sid == "" {
		return nil, http.StatusBadRequest, ErrorResponse{Error: "server: missing " + HeaderSession + " header"}
	}
	sess := s.sessions.get(tenant, sid, time.Now())
	if sess == nil {
		return nil, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("server: unknown session %q for tenant %q", sid, tenant)}
	}
	return sess, 0, nil
}

func (s *Server) handleExecPrepared(ctx context.Context, w http.ResponseWriter, r *http.Request, tenant string) (int, any) {
	id, err := decode(r, "id")
	if err != nil {
		return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
	}
	sess, status, body := s.sessionOf(r, tenant)
	if sess == nil {
		return status, body
	}
	p := sess.lookup(id)
	if p == nil {
		return http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("server: no prepared statement %q in session %s", id, sess.id)}
	}
	w.Header().Set(HeaderSession, sess.id)
	ans, err := p.QueryCtx(ctx)
	if err != nil {
		return statusFor(err), ErrorResponse{Error: err.Error()}
	}
	return http.StatusOK, answerBody{ans}
}

func (s *Server) handleClosePrepared(_ context.Context, w http.ResponseWriter, r *http.Request, tenant string) (int, any) {
	id, err := decode(r, "id")
	if err != nil {
		return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
	}
	sess, status, body := s.sessionOf(r, tenant)
	if sess == nil {
		return status, body
	}
	if !sess.close(id) {
		return http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("server: no prepared statement %q in session %s", id, sess.id)}
	}
	w.Header().Set(HeaderSession, sess.id)
	return http.StatusOK, OKResponse{OK: true}
}

func (s *Server) handleSession(_ context.Context, _ http.ResponseWriter, r *http.Request, tenant string) (int, any) {
	sess, status, body := s.sessionOf(r, tenant)
	if sess == nil {
		return status, body
	}
	return http.StatusOK, SessionResponse{Session: sess.id, Tenant: tenant, Prepared: sess.ids()}
}

func (s *Server) handleHealth(_ context.Context, _ http.ResponseWriter, _ *http.Request, _ string) (int, any) {
	h, err := s.db.Health()
	if err != nil {
		return http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()}
	}
	return http.StatusOK, h
}

func (s *Server) handleHealthz(_ context.Context, _ http.ResponseWriter, _ *http.Request, _ string) (int, any) {
	resp := HealthzResponse{Status: "ok", Inflight: s.adm.current(), Sessions: s.sessions.len()}
	if s.adm.drainingNow() {
		resp.Status = "draining"
		return http.StatusServiceUnavailable, resp
	}
	return http.StatusOK, resp
}

// statusFor maps an engine error to a wire status: deadline expiry is
// the server failing the request (504), a cancelled client is 503, an
// unreachable federated member is an upstream failure (502), everything
// else — parse errors, read-only violations, schema rejections — is the
// statement's fault (400).
func statusFor(err error) int {
	var srcErr *federation.SourceError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.As(err, &srcErr):
		return http.StatusBadGateway
	default:
		return http.StatusBadRequest
	}
}

// validTenant bounds tenant names: short, printable, no separators —
// they key sessions, admission accounting and metric names.
func validTenant(t string) bool {
	if len(t) == 0 || len(t) > 64 {
		return false
	}
	for _, c := range t {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-', c == '.':
		default:
			return false
		}
	}
	return true
}
