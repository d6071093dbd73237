package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans a traced run keeps in memory; aggregates keep
// counting past it.
const maxSpans = 200_000

// spanHeader carries the caller's span and operation IDs from the client
// transport to the server-side handler wrapper, so handler spans link to
// the round trip that caused them. It is added to traced requests only,
// after their bytes were counted.
const spanHeader = "X-Bench-Span"

// span is one timed call at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
}

type agg struct {
	n  int64
	ns int64
}

// tracer records spans and per-name aggregates. A nil tracer, or one that
// is not recording, costs one branch per call site.
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int
	aggs    map[string]*agg
}

func newTracer() *tracer { return &tracer{t0: time.Now(), aggs: map[string]*agg{}} }

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// record stores a finished span and adds it to its name's aggregate.
func (t *tracer) record(name string, id, parent, op uint64, start, end time.Time) {
	t.mu.Lock()
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	a.n++
	a.ns += int64(end.Sub(start))
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name, int64(start.Sub(t.t0)), int64(end.Sub(t.t0)), id, parent, op})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// add adds n events of total duration d to an aggregate, without a span.
func (t *tracer) add(name string, n int64, d time.Duration) {
	t.mu.Lock()
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	a.n += n
	a.ns += int64(d)
	t.mu.Unlock()
}

func (t *tracer) get(name string) agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil {
		return *a
	}
	return agg{}
}

// meanUS is an aggregate's mean duration in microseconds (0 when empty).
func (t *tracer) meanUS(name string) float64 {
	a := t.get(name)
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n) / 1e3
}

// write dumps the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanCtx is the trace position carried in a request's context.
type spanCtx struct{ op, parent uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, op, parent uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{op, parent})
}

func spanFrom(ctx context.Context) spanCtx {
	s, _ := ctx.Value(spanKey{}).(spanCtx)
	return s
}

// meter is the http.RoundTripper under a group of clients. It counts the
// bytes of every request and response — request line, headers and body —
// and, when its tracer records, times each round trip from the call to the
// close of the response body.
type meter struct {
	base  http.RoundTripper
	name  string // span name of a round trip
	link  bool   // tell the server wrapper which round trip a request is
	t     *tracer
	bytes atomic.Int64
	trips atomic.Int64
}

func newMeter(name string, link bool, t *tracer) *meter {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	return &meter{base: tr, name: name, link: link, t: t}
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	m.trips.Add(1)
	m.bytes.Add(int64(headBytes(req.Method+" "+req.URL.RequestURI()+" HTTP/1.1", req.Header) + len("Host: \r\n") + len(req.URL.Host)))
	out := req.Clone(req.Context())
	if req.Body != nil {
		out.Body = &countBody{rc: req.Body, n: &m.bytes}
	}
	var id uint64
	var start time.Time
	var sc spanCtx
	name := m.name
	if strings.HasSuffix(req.URL.Path, "/events") {
		name += ".poll" // a long poll parks until the next write
	}
	if m.t.recording() {
		id, start, sc = m.t.newID(), time.Now(), spanFrom(req.Context())
		if m.link {
			out.Header.Set(spanHeader, fmt.Sprintf("%d.%d", id, sc.op))
		}
	}
	resp, err := m.base.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	m.bytes.Add(int64(headBytes(resp.Proto+" "+resp.Status, resp.Header)))
	cb := &countBody{rc: resp.Body, n: &m.bytes}
	if id != 0 {
		cb.done = func() { m.t.record(name, id, sc.parent, sc.op, start, time.Now()) }
	}
	resp.Body = cb
	return resp, nil
}

// headBytes is the size of a message's start line and headers on the wire.
func headBytes(line string, h http.Header) int {
	n := len(line) + 4
	for k, vs := range h {
		for _, v := range vs {
			n += len(k) + len(v) + 4
		}
	}
	return n
}

type countBody struct {
	rc   io.ReadCloser
	n    *atomic.Int64
	done func()
	once sync.Once
}

func (b *countBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countBody) Close() error {
	err := b.rc.Close()
	if b.done != nil {
		b.once.Do(b.done)
	}
	return err
}

// tracedHandler times hosting.Server.ServeHTTP per request class.
type tracedHandler struct {
	next http.Handler
	t    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.t.recording() {
		h.next.ServeHTTP(w, r)
		return
	}
	var parent, op uint64
	if v := r.Header.Get(spanHeader); v != "" {
		a, b, _ := strings.Cut(v, ".")
		parent, _ = strconv.ParseUint(a, 10, 64)
		op, _ = strconv.ParseUint(b, 10, 64)
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	h.next.ServeHTTP(sw, r)
	end := time.Now()
	name := "hosting.handler." + classify(r, sw.code)
	h.t.record(name, h.t.newID(), parent, op, start, end)
	if parent != 0 {
		// Handler time under a client round trip, for the network residue.
		h.t.add("hosting.handler_under_client", 1, end.Sub(start))
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handlerClasses are the request classes reported per layer.
var handlerClasses = []string{
	"repo_meta", "cite", "chain", "render", "tree", "citefile", "citefile_304",
	"negotiate", "push", "fork", "cite_edit",
}

// classify names a v1 API request's class from its route.
func classify(r *http.Request, code int) string {
	p := r.URL.Path
	switch {
	case strings.Contains(p, "/cite/"):
		if r.URL.Query().Get("format") != "" {
			return "render"
		}
		return "cite"
	case strings.HasSuffix(p, "/cite"):
		return "cite_edit"
	case strings.Contains(p, "/chain/"):
		return "chain"
	case strings.Contains(p, "/tree/"):
		return "tree"
	case strings.Contains(p, "/citefile/"):
		if code == http.StatusNotModified {
			return "citefile_304"
		}
		return "citefile"
	case strings.HasSuffix(p, "/negotiate"):
		return "negotiate"
	case strings.HasSuffix(p, "/push"):
		return "push"
	case strings.HasSuffix(p, "/fork"):
		return "fork"
	case strings.HasSuffix(p, "/objects"):
		return "objects"
	case strings.Contains(p, "/pull/"):
		return "pull"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/api/v1/repos/") && strings.Count(p, "/") == 5:
		return "repo_meta"
	}
	return "other"
}
