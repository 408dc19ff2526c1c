package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The traced run keeps one span per layer boundary the benchmark itself
// crosses or hosts: client requests, a middleware around every handler
// it mounts, the http.Clients it hands to the router and the WAL
// shippers, and direct library calls. No span is recorded inside the
// program. Spans are kept in memory and dumped as JSON lines when the
// run ends.

// reqHeader carries a client span's id to a handler the client talks to
// directly. The router forwards no headers, so spans behind it are
// linked by method, path and time containment (link).
const reqHeader = "X-Bench-Req"

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Req is the id of the client span that started the request.
	Req  uint64 `json:"req,omitempty"`
	Name string `json:"name"`
	// Node is where the span ran; Target the node an outbound request
	// addressed.
	Node   string `json:"node"`
	Target string `json:"target,omitempty"`
	Method string `json:"method,omitempty"`
	Path   string `json:"path,omitempty"`
	Status int    `json:"status,omitempty"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// Span names.
const (
	spanClient   = "client"   // a benchmark client's request, body read included
	spanServer   = "server"   // a handler the benchmark mounted
	spanOut      = "outbound" // a request through a client handed to dist
	spanCall     = "call"     // a direct library call; Path names it
	spanEngineRd = "engine.read"
)

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
	hosts map[string]string // host:port → node name
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), hosts: map[string]string{}}
}

// now is nanoseconds on the monotonic clock since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span under a fresh id.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newID reserves a span id ahead of recording the span (client spans
// pass theirs on in reqHeader).
func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// addWithID records a span under an id from newID.
func (t *tracer) addWithID(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// name registers the node a listener address belongs to, so outbound
// spans can name their target.
func (t *tracer) name(host, node string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.hosts[host] = node
	t.mu.Unlock()
}

func (t *tracer) nodeOf(host string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hosts[host]
}

// handler wraps a handler the benchmark mounts on node with a server
// span. A nil tracer returns h unchanged.
func (t *tracer) handler(node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		t.add(span{Name: spanServer, Node: node, Method: r.Method, Path: r.URL.RequestURI(),
			Status: sw.status, Start: start, End: t.now(), Req: req, Parent: req})
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// client returns the *http.Client to hand to a dist component on node:
// nil untraced, so dist builds its default &http.Client{}; traced, a
// client over http.DefaultTransport (what that default uses) that
// records an outbound span per request, ending when the body is closed.
func (t *tracer) client(node string) *http.Client {
	if t == nil {
		return nil
	}
	return &http.Client{Transport: &tracedTransport{t: t, node: node, base: http.DefaultTransport}}
}

type tracedTransport struct {
	t    *tracer
	node string
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sp := span{Name: spanOut, Node: tt.node, Target: tt.t.nodeOf(r.URL.Host),
		Method: r.Method, Path: r.URL.RequestURI(), Start: tt.t.now()}
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		sp.End, sp.Status = tt.t.now(), -1
		tt.t.add(sp)
		return nil, err
	}
	sp.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, sp: sp}
	return resp, nil
}

// spanBody ends its outbound span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = b.t.now()
		b.t.add(b.sp)
	})
	return err
}

// call records a span around a direct library call.
func (t *tracer) call(name string, f func()) {
	if t == nil {
		f()
		return
	}
	start := t.now()
	f()
	t.add(span{Name: spanCall, Node: "bench", Path: name, Start: start, End: t.now()})
}

// snapshot returns a copy of the spans recorded so far, sorted by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// link fills in Parent and Req for spans behind a hop that forwards no
// request id. A server span's parent is the latest-started client or
// outbound span addressing its node with the same method and path that
// contains it in time; an outbound span's parent is the latest-started
// server span on its own node that contains it (for WAL shipments, the
// write being applied). Each workload keeps at most one request of a
// kind outstanding per connection, so the latest containing candidate
// is the only one. spans must be sorted by start.
func link(spans []span) {
	type key struct{ node, method, path string }
	byID := make(map[uint64]int, len(spans))
	callers := map[key][]int{} // outbound/client spans by target
	servers := map[string][]int{}
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = i
		switch s.Name {
		case spanOut:
			callers[key{s.Target, s.Method, s.Path}] = append(callers[key{s.Target, s.Method, s.Path}], i)
		case spanServer:
			servers[s.Node] = append(servers[s.Node], i)
		}
	}
	contains := func(p, c *span) bool { return p.Start <= c.Start && p.End >= c.End }
	latest := func(cands []int, c *span, ok func(p *span) bool) int {
		// Candidates are sorted by start: scan back from the last one that
		// started no later than c. With one request of a kind outstanding
		// per connection the parent is among the last few.
		j := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > c.Start }) - 1
		for stop := j - 64; j >= 0 && j > stop; j-- {
			p := &spans[cands[j]]
			if contains(p, c) && ok(p) {
				return cands[j]
			}
		}
		return -1
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == spanServer && s.Parent == 0:
			if p := latest(callers[key{s.Node, s.Method, s.Path}], s, func(*span) bool { return true }); p >= 0 {
				s.Parent = spans[p].ID
			}
		case s.Name == spanOut:
			ship := s.Path == "/repl/append"
			p := latest(servers[s.Node], s, func(p *span) bool {
				if ship {
					return p.Method != http.MethodGet
				}
				return p.Method == s.Method
			})
			if p >= 0 {
				s.Parent = spans[p].ID
			}
		}
	}
	// Propagate request ids down the (start-sorted) parent links.
	for i := range spans {
		s := &spans[i]
		if s.Req == 0 && s.Parent != 0 {
			if p, ok := byID[s.Parent]; ok {
				s.Req = spans[p].Req
			}
		}
	}
}

// dump writes spans as JSON lines to path.
func dump(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
