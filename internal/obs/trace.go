package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects hierarchical spans. A nil *Tracer is the disabled
// tracer: Start returns a nil *Span, every Span method no-ops, and no
// clock is read — instrumentation sites pay one pointer test.
//
// Finished root spans land in a bounded ring (newest kept), so a REPL or
// debug endpoint can show the last few operation trees without unbounded
// memory growth.
type Tracer struct {
	capacity int // fixed at NewTracer
	mu       sync.Mutex
	recent   []*Span // finished roots, oldest first

	// dropped counts finished roots evicted by the capacity bound, so a
	// long session can tell "quiet" from "overwritten". An optional
	// registry counter mirrors it (SetDropCounter) for scrape surfaces.
	dropped     atomic.Uint64
	dropCounter *Counter
}

// NewTracer returns an enabled tracer keeping the last capacity finished
// root spans (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{capacity: capacity}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Start opens a root span. End() files it into the ring.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tracer: t, Name: name, start: time.Now()}
}

// Recent returns the finished root spans, oldest first.
func (t *Tracer) Recent() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.recent...)
}

// Clear drops the recorded spans.
func (t *Tracer) Clear() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recent = nil
}

func (t *Tracer) file(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.recent) >= t.capacity {
		drop := len(t.recent) - t.capacity + 1
		copy(t.recent, t.recent[drop:])
		t.recent = t.recent[:t.capacity]
		t.recent[t.capacity-1] = s
		t.countDropped(uint64(drop))
		return
	}
	t.recent = append(t.recent, s)
}

// countDropped tallies evictions; callers hold t.mu.
func (t *Tracer) countDropped(n uint64) {
	t.dropped.Add(n)
	if t.dropCounter != nil {
		t.dropCounter.Add(n)
	}
}

// Dropped returns how many finished root spans the retention bound has
// evicted since the tracer was created.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// SetDropCounter mirrors future evictions into a registry counter
// (typically "traces.dropped"); nil detaches.
func (t *Tracer) SetDropCounter(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropCounter = c
}

// Capacity returns the retention bound (0 for a nil tracer).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.capacity
}

// Attr is one span annotation: a string or integer value under a key.
type Attr struct {
	Key   string `json:"key"`
	Str   string `json:"str,omitempty"`
	Int   int64  `json:"int,omitempty"`
	IsStr bool   `json:"-"`
}

func (a Attr) String() string {
	if a.IsStr {
		return a.Key + "=" + a.Str
	}
	return fmt.Sprintf("%s=%d", a.Key, a.Int)
}

// Span is one timed node in an operation tree. Spans are built
// single-threaded (the engine serializes operations); only the tracer's
// ring is locked.
type Span struct {
	tracer *Tracer
	parent *Span
	start  time.Time

	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Children []*Span       `json:"children,omitempty"`
}

// Child opens a sub-span; call End on it before ending the parent.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{parent: s, Name: name, start: time.Now()}
	s.Children = append(s.Children, c)
	return c
}

// AddChild attaches an already-measured child (used when the measurement
// was accumulated out-of-band, e.g. per-conjunct probes).
func (s *Span) AddChild(name string, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{parent: s, Name: name, Duration: d}
	s.Children = append(s.Children, c)
	return c
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Int: v})
	return s
}

// SetStr annotates the span with a string attribute.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: v, IsStr: true})
	return s
}

// End stamps the duration; a root span additionally files itself into
// the tracer's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.Duration == 0 && !s.start.IsZero() {
		s.Duration = time.Since(s.start)
	}
	if s.parent == nil && s.tracer != nil {
		s.tracer.file(s)
	}
}

// Depth returns how many ancestors the span has.
func (s *Span) Depth() int {
	d := 0
	for p := s.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// String renders the span tree, indented two spaces per level.
func (s *Span) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.render(&b, 0)
	return strings.TrimRight(b.String(), "\n")
}

func (s *Span) render(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s %s", s.Name, s.Duration)
	for _, a := range s.Attrs {
		b.WriteString(" ")
		b.WriteString(a.String())
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		c.render(b, depth+1)
	}
}
