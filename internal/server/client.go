package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Client speaks the wire protocol. It carries the connection-ish state
// a wire session needs — tenant, session ID (adopted automatically from
// response headers), trace ID, per-request timeout — and is used by
// cmd/idlload, the replay-to-server path and the test battery. A Client
// is safe for sequential use; concurrent callers should clone one per
// goroutine (sessions are per-connection state).
type Client struct {
	Base    string // server base URL, e.g. http://127.0.0.1:8089
	Tenant  string // X-Tenant; empty means the server default
	Session string // X-Session-Id; adopted from responses when minted
	TraceID string // X-Trace-Id; empty means server/facade minting
	Timeout int    // X-Timeout-Ms; 0 means the server default
	HTTP    *http.Client
}

// NewClient returns a client for base (trailing slash trimmed).
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: http.DefaultClient}
}

// Clone returns an independent client sharing the transport but not
// the session.
func (c *Client) Clone() *Client {
	cp := *c
	cp.Session = ""
	return &cp
}

// StatusError is a non-2xx wire response.
type StatusError struct {
	Code int
	Msg  string // the server's ErrorResponse.Error
}

func (e *StatusError) Error() string { return fmt.Sprintf("server: %d: %s", e.Code, e.Msg) }

// IsShed reports whether the response was an admission-control 429.
func (e *StatusError) IsShed() bool { return e.Code == http.StatusTooManyRequests }

// do sends one request with body (none when nil) and decodes the
// response into out (ignored when nil): a *QueryResponse by the wire
// codec, anything else by encoding/json. Non-2xx responses return a
// *StatusError carrying the server's error string.
func (c *Client) do(ctx context.Context, method, path string, in []byte, out any) error {
	var body io.Reader
	if in != nil {
		body = bytes.NewReader(in)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set(HeaderTenant, c.Tenant)
	}
	if c.Session != "" {
		req.Header.Set(HeaderSession, c.Session)
	}
	if c.TraceID != "" {
		req.Header.Set(HeaderTrace, c.TraceID)
	}
	if c.Timeout > 0 {
		req.Header.Set(HeaderTimeout, strconv.Itoa(c.Timeout))
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	// Read to EOF before closing: net/http returns a keep-alive connection
	// to its pool only once the body is consumed, and json.Decoder stops at
	// the end of the value, short of the trailing newline.
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if sid := resp.Header.Get(HeaderSession); sid != "" {
		c.Session = sid
	}
	if resp.StatusCode/100 != 2 {
		var er ErrorResponse
		msg := resp.Status
		if err := json.NewDecoder(resp.Body).Decode(&er); err == nil && er.Error != "" {
			msg = er.Error
		}
		return &StatusError{Code: resp.StatusCode, Msg: msg}
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *QueryResponse:
		return readQueryResponse(resp.Body, resp.ContentLength, out)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Query evaluates a read-only query.
func (c *Client) Query(ctx context.Context, stmt string) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.do(ctx, http.MethodPost, "/v1/query", requestBody("stmt", stmt), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Exec runs an update request or program call.
func (c *Client) Exec(ctx context.Context, stmt string) (*ExecResponse, error) {
	var out ExecResponse
	if err := c.do(ctx, http.MethodPost, "/v1/exec", requestBody("stmt", stmt), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Rule registers a view rule.
func (c *Client) Rule(ctx context.Context, stmt string) error {
	return c.do(ctx, http.MethodPost, "/v1/rule", requestBody("stmt", stmt), nil)
}

// Clause registers an update-program clause.
func (c *Client) Clause(ctx context.Context, stmt string) error {
	return c.do(ctx, http.MethodPost, "/v1/clause", requestBody("stmt", stmt), nil)
}

// Prepare compiles a prepared statement server-side, minting a session
// when the client has none (the ID is adopted for later calls).
func (c *Client) Prepare(ctx context.Context, stmt string) (*PrepareResponse, error) {
	var out PrepareResponse
	if err := c.do(ctx, http.MethodPost, "/v1/prepare", requestBody("stmt", stmt), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ExecPrepared executes a prepared statement in the client's session.
func (c *Client) ExecPrepared(ctx context.Context, id string) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.do(ctx, http.MethodPost, "/v1/exec-prepared", requestBody("id", id), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ClosePrepared drops a prepared statement from the client's session.
func (c *Client) ClosePrepared(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/close-prepared", requestBody("id", id), nil)
}

// SessionInfo describes the client's server-side session.
func (c *Client) SessionInfo(ctx context.Context) (*SessionResponse, error) {
	var out SessionResponse
	if err := c.do(ctx, http.MethodGet, "/v1/session", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz probes liveness; it returns the body even on 503 (draining).
func (c *Client) Healthz(ctx context.Context) (*HealthzResponse, error) {
	var out HealthzResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Code == http.StatusServiceUnavailable {
			return &HealthzResponse{Status: "draining"}, nil
		}
		return nil, err
	}
	return &out, nil
}

// Health fetches the DB's health report as raw JSON.
func (c *Client) Health(ctx context.Context) (json.RawMessage, error) {
	var out json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/health", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
