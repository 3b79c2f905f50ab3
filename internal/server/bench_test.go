package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"idl/internal/server"
)

// discardWriter is a ResponseWriter that keeps headers and drops the
// body, so a benchmark prices the handler and not a recorder.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkServeQuery prices one /v1/query through the server's handler,
// request decode to response write, without a socket: a point read and
// the 1 800-row scan over served.scan's universe.
func BenchmarkServeQuery(b *testing.B) {
	db := scanDB(b)
	row, err := db.Query(scanQuery)
	if err != nil {
		b.Fatal(err)
	}
	point := fmt.Sprintf("?.euter.r(.stkCode=%s, .date=%s, .clsPrice=P)", row.Row(0).Get("S"), row.Row(0).Get("D"))
	h := server.New(db, server.Config{}).Handler()
	for _, c := range []struct{ name, stmt string }{{"point", point}, {"scan", scanQuery}} {
		b.Run(c.name, func(b *testing.B) {
			body := stmtBody(b, c.stmt)
			rd := strings.NewReader(body)
			req, err := http.NewRequestWithContext(context.Background(), "POST", "/v1/query", rd)
			if err != nil {
				b.Fatal(err)
			}
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			for b.Loop() {
				rd.Reset(body)
				req.Body = io.NopCloser(rd)
				clear(w.h)
				h.ServeHTTP(w, req)
			}
		})
	}
}
