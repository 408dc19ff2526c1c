package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/bfscount"
	"repro/internal/serve"
)

// workload sets one traffic mix up: it generates the inputs from
// cfg.seed, builds and boots the system, and warms it. With a tracer it
// wires tracing into every layer boundary the benchmark hosts.
// WORKLOADS.md says what each runs and why.
type workload func(cfg config, tr *tracer) (system, setupTimes, error)

var workloads = map[string]workload{
	"paper-path":   setupPaperPath,
	"hot-reads":    setupHotReads,
	"routed-mixed": setupRoutedMixed,
}

// setupTimes splits one set-up into its steps, in seconds.
type setupTimes struct{ graph, build, boot, warm float64 }

// system is one set-up workload, ready to measure.
type system interface {
	// run drives the workload's clients for d.
	run(d time.Duration) (*observed, error)
	// check compares sampled answers with the BFS oracle on the
	// benchmark's own copy of the final graph, at quiesce. It returns how
	// many answers it checked and how many were wrong or failed.
	check() (checked, wrong int)
	labelBytesPerEdge() float64
	// layers adds the per-layer metrics read from the program's own
	// counters and from the spans of a traced run.
	layers(l *layerSet, spans []span)
	close() error
}

// observed is what a run's clients saw. A run is measured in rounds;
// each latency and rate metric is computed per round and reported as
// the median over the rounds, so a burst of interference from outside
// the benchmark moves one round, not the result.
type observed struct {
	// The current round's samples.
	reads      []int64 // per-read latency, ns
	readWindow time.Duration
	inserts    []int64 // per-write latency, ns
	deletes    []int64
	// writeWindow is the time the write stream ran.
	writeWindow time.Duration

	rounds []map[string]float64 // per-round metrics, from endRound
	// pooled holds metrics measured over the whole run instead of per
	// round; they take precedence over the round medians.
	pooled      map[string]float64
	ops, failed int64   // operations attempted; transport errors and non-2xx
	late        []int64 // open-loop write generator lateness, ns
}

// endRound computes the current round's latency and rate metrics and
// clears its samples for the next round.
func (o *observed) endRound() {
	o.rounds = append(o.rounds, map[string]float64{
		"read_p50_us":   quantile(durs(o.reads, time.Microsecond), 0.50),
		"read_p99_us":   quantile(durs(o.reads, time.Microsecond), 0.99),
		"read_per_s":    float64(len(o.reads)) / o.readWindow.Seconds(),
		"insert_p50_ms": quantile(durs(o.inserts, time.Millisecond), 0.50),
		"insert_p99_ms": quantile(durs(o.inserts, time.Millisecond), 0.99),
		"delete_p50_ms": quantile(durs(o.deletes, time.Millisecond), 0.50),
		"delete_p99_ms": quantile(durs(o.deletes, time.Millisecond), 0.99),
		"write_per_s":   float64(len(o.inserts)+len(o.deletes)) / o.writeWindow.Seconds(),
	})
	o.reads, o.inserts, o.deletes = o.reads[:0], o.inserts[:0], o.deletes[:0]
	o.readWindow, o.writeWindow = 0, 0
}

// roundMedian is the median of a per-round metric, or its pooled value.
func (o *observed) roundMedian(name string) float64 {
	if v, ok := o.pooled[name]; ok {
		return v
	}
	xs := make([]float64, len(o.rounds))
	for i, r := range o.rounds {
		xs[i] = r[name]
	}
	return median(xs)
}

// httpClient is one benchmark client: its own transport, so its own
// keep-alive connection.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}, Timeout: 30 * time.Second}
}

// closeClient drops the client's idle connections.
func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// listen serves h on a loopback port and returns its base URL and the
// server.
func listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), srv, nil
}

// getCycle reads one answer over HTTP. A client span is recorded when
// tr is set.
func getCycle(c *http.Client, tr *tracer, base string, v int) (answer, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/cycle/"+strconv.Itoa(v), nil)
	if err != nil {
		return answer{}, err
	}
	body, err := do(c, tr, req)
	if err != nil {
		return answer{}, err
	}
	var out serve.CycleJSON
	if err := json.Unmarshal(body, &out); err != nil {
		return answer{}, fmt.Errorf("decode /cycle/%d: %w", v, err)
	}
	if !out.Exists {
		return answer{Length: bfscount.NoCycle}, nil
	}
	return answer{Length: out.Length, Count: out.Count}, nil
}

// writeEdge sends one flap half as DELETE or POST /edges. With flush it
// adds ?flush=1 and returns once the write is applied; without, once it
// is enqueued (cscd's default acknowledgement).
func writeEdge(c *http.Client, tr *tracer, base string, e [2]int, del, flush bool) error {
	method := http.MethodPost
	if del {
		method = http.MethodDelete
	}
	body, _ := json.Marshal(serve.EdgesRequest{Edges: [][2]int{e}}) // cannot fail
	url := base + "/edges"
	if flush {
		url += "?flush=1"
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := do(c, tr, req)
	if err != nil {
		return err
	}
	var out serve.EdgesResponse
	if err := json.Unmarshal(resp, &out); err != nil {
		return fmt.Errorf("decode /edges: %w", err)
	}
	if out.Enqueued != 1 || flush && !out.Flushed {
		return fmt.Errorf("%s /edges %v: enqueued %d, flushed %v, rejected %v", method, e, out.Enqueued, out.Flushed, out.Rejected)
	}
	return nil
}

// do sends req, reads the whole body, and fails on a non-2xx status.
func do(c *http.Client, tr *tracer, req *http.Request) ([]byte, error) {
	var sp span
	if tr != nil {
		sp = span{ID: tr.newID(), Name: spanClient, Node: "client", Target: tr.nodeOf(req.URL.Host),
			Method: req.Method, Path: req.URL.RequestURI(), Start: tr.now()}
		sp.Req = sp.ID
		req.Header.Set(reqHeader, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr != nil {
		sp.End, sp.Status = tr.now(), resp.StatusCode
		tr.addWithID(sp)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}
