package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/csc"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// hot-reads: an in-process engine and serve handler with cscd defaults
// (metrics on, read cache on) over real loopback TCP, communities with
// K=100. Two clients in a closed loop, each on its own keep-alive
// connection, send GET /cycle/{v} with v drawn from Zipf(1.1) over a
// seeded permutation of the vertices. After the read phase, one client
// flaps edges through POST/DELETE /edges?flush=1 (closed loop, no WAL,
// as cscd runs without -data), so the write metrics exist here too.
const (
	hotK       = 100
	hotClients = 2
	hotZipfS   = 1.1
	// hotWarm is how many reads each client sends to warm the cache
	// before timing.
	hotWarm = 10000
	// hotHotSet is how many of the most popular vertices the quiesce
	// check asks.
	hotHotSet = 200
	// hotRounds: the run alternates read and write phases this many
	// times; each round yields one value of every latency and rate metric.
	hotRounds = 5
	// hotReadShare is the share of each round spent in the read phase.
	hotReadShare = 0.7
	// hotEngineReadEvery: a traced run times the in-process
	// Engine.CycleCount on every that-many-th read of the stream.
	hotEngineReadEvery = 16
)

// cscdOptions are the engine options cscd runs with by default.
func cscdOptions(reg *obs.Registry) engine.Options {
	return engine.Options{
		MaxBatch:      256,
		FlushInterval: 2 * time.Millisecond,
		MailboxSize:   4096,
		SnapshotEvery: 64,
		WALRetry:      3,
		Metrics:       reg,
	}
}

// buildIndex builds the index cscd builds by default (SCC-sharded,
// degree order, all cores).
func buildIndex(tr *tracer, g *graph.Digraph) csc.Counter {
	var x *csc.Sharded
	tr.call("csc.build", func() { x, _ = csc.BuildSharded(g, csc.Options{}) })
	return x
}

type hotReads struct {
	cfg     config
	tr      *tracer
	g       *graph.Digraph // the oracle's copy
	e       *engine.Engine
	reg     *obs.Registry
	srv     *http.Server
	base    string
	perm    []int
	streams []*zipfStream
	clients []*http.Client
	flaps   *flapper
	before  scrape // registry at the start of the measured window
	rings   *ringPoller
	eread   []int64 // traced: in-process Engine.CycleCount spans, ns
}

// zipfStream is one client's vertex stream: Zipf ranks mapped through
// the shared permutation.
type zipfStream struct {
	z    *rand.Zipf
	perm []int
}

func (s *zipfStream) next() int { return s.perm[s.z.Uint64()] }

func setupHotReads(cfg config, tr *tracer) (system, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	g := communities(hotK, cfg.seed)
	n := g.NumVertices()
	h := &hotReads{cfg: cfg, tr: tr, g: g.Clone(), flaps: newFlapper(g, cfg.seed),
		perm: rand.New(rand.NewSource(cfg.seed ^ 0x2f1)).Perm(n)}
	for c := 0; c < hotClients; c++ {
		r := rand.New(rand.NewSource(cfg.seed*31 + int64(c)))
		h.streams = append(h.streams, &zipfStream{z: rand.NewZipf(r, hotZipfS, 1, uint64(n-1)), perm: h.perm})
		h.clients = append(h.clients, httpClient())
	}
	st.graph = time.Since(t0).Seconds()

	t1 := time.Now()
	ix := buildIndex(tr, g)
	st.build = time.Since(t1).Seconds()

	t2 := time.Now()
	h.reg = obs.New()
	h.e = engine.New(ix, cscdOptions(h.reg))
	var err error
	h.base, h.srv, err = listen(tr.handler("worker", serve.NewHandler(h.e, nil, 0, serve.Options{})))
	if err != nil {
		h.e.Close()
		return nil, st, err
	}
	tr.name(strings.TrimPrefix(h.base, "http://"), "worker")
	st.boot = time.Since(t2).Seconds()

	t3 := time.Now()
	if _, err := h.reads(nil, hotWarm, time.Time{}); err != nil {
		h.close()
		return nil, st, fmt.Errorf("warm-up: %w", err)
	}
	st.warm = time.Since(t3).Seconds()
	return h, st, nil
}

// reads runs every client's closed loop, until each has sent count
// reads or, with count 0, until end, appends the latencies to o (nil
// during warm-up) and returns the failed reads.
func (h *hotReads) reads(o *observed, count int, end time.Time) (failed int64, err error) {
	var wg sync.WaitGroup
	lat := make([][]int64, hotClients)
	fails := make([]int64, hotClients)
	eread := make([][]int64, hotClients)
	for c := 0; c < hotClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, s := h.clients[c], h.streams[c]
			tr := h.tr
			if o == nil {
				tr = nil // warm-up reads are not traced
			}
			for i := 0; count == 0 || i < count; i++ {
				v := s.next()
				t := time.Now()
				if count == 0 && t.After(end) {
					return
				}
				if _, err := getCycle(cl, tr, h.base, v); err != nil {
					fails[c]++
				}
				lat[c] = append(lat[c], int64(time.Since(t)))
				if tr != nil && i%hotEngineReadEvery == 0 {
					s0 := tr.now()
					h.e.CycleCount(v)
					s1 := tr.now()
					eread[c] = append(eread[c], s1-s0)
					tr.add(span{Name: spanEngineRd, Node: "worker", Path: "Engine.CycleCount", Start: s0, End: s1})
				}
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < hotClients; c++ {
		failed += fails[c]
		if o != nil {
			o.reads = append(o.reads, lat[c]...)
			h.eread = append(h.eread, eread[c]...)
		}
	}
	if count > 0 && failed > 0 {
		return failed, fmt.Errorf("%d of %d reads failed", failed, count*hotClients)
	}
	return failed, nil
}

func (h *hotReads) run(d time.Duration) (*observed, error) {
	o := &observed{}
	h.before = scrapeRegistry(h.reg)
	if h.tr != nil {
		h.rings = pollRings(h.e)
		defer h.rings.stop()
	}
	rd := d / hotRounds
	for r := 0; r < hotRounds; r++ {
		start := time.Now()
		failed, _ := h.reads(o, 0, start.Add(time.Duration(float64(rd)*hotReadShare)))
		o.readWindow = time.Since(start)
		o.ops += int64(len(o.reads))
		o.failed += failed
		if err := h.flap(o, start.Add(rd)); err != nil {
			return nil, err
		}
		o.endRound()
	}
	return o, nil
}

// flap is one round's write phase: whole flaps from one client until
// end.
func (h *hotReads) flap(o *observed, end time.Time) error {
	start := time.Now()
	cl := h.clients[0]
	for {
		e, del := h.flaps.next()
		t := time.Now()
		err := writeEdge(cl, h.tr, h.base, e, del, true)
		lat := int64(time.Since(t))
		o.ops++
		if del {
			o.deletes = append(o.deletes, lat)
		} else {
			o.inserts = append(o.inserts, lat)
		}
		if err != nil {
			o.failed++
		} else if err := mirror(h.g, e, del); err != nil {
			return err
		}
		if !h.flaps.midFlap() && time.Now().After(end) {
			break
		}
	}
	o.writeWindow = time.Since(start)
	return nil
}

// check asks the hot set, the hotHotSet most popular vertices of the
// Zipf stream, over HTTP and compares with the oracle.
func (h *hotReads) check() (int, int) {
	vs := h.perm[:hotHotSet]
	want := oracleAnswers(h.g, vs)
	return len(vs), countWrong(vs, want, func(v int) (answer, error) {
		return getCycle(h.clients[0], nil, h.base, v)
	})
}

func (h *hotReads) labelBytesPerEdge() float64 {
	st := h.e.Stats()
	return float64(st.LabelBytes) / float64(st.Edges)
}

func (h *hotReads) layers(l *layerSet, spans []span) {
	l.callSpans(spans)
	l.set("pll.label_entries", float64(h.e.Stats().Entries), 1, "engine Stats().Entries at quiesce")
	engineLayers(l, scrapeRegistry(h.reg).diff(h.before), h.rings)
	l.set("engine.read_ns", median(durs(h.eread, time.Nanosecond)), len(h.eread),
		fmt.Sprintf("p50 of spans around the in-process Engine.CycleCount on every %dth read of the stream", hotEngineReadEvery))

	var handler, transport []int64
	byID := map[uint64]*span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != spanServer || s.Method != http.MethodGet || !strings.HasPrefix(s.Path, "/cycle/") {
			continue
		}
		handler = append(handler, s.dur())
		if p, ok := byID[s.Parent]; ok && p.Name == spanClient {
			transport = append(transport, p.dur()-s.dur())
		}
	}
	l.dist("serve.handler_us", handler, time.Microsecond, "middleware span around the worker handler, GET /cycle")
	l.set("serve.transport_us", median(durs(transport, time.Microsecond)), len(transport),
		"p50 of client span minus its handler span, GET /cycle")
}

func (h *hotReads) close() error {
	for _, c := range h.clients {
		closeClient(c)
	}
	err := h.srv.Close()
	if cerr := h.e.Close(); err == nil {
		err = cerr
	}
	return err
}
