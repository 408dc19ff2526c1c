package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/csc"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// routed-mixed: the end-to-end read and write paths over communities
// with K=20. A dist.Router with cscrouter defaults fronts 2 groups;
// each group is a primary engine with a WAL (fsync per batch, snapshot
// every 64 batches: the cscd defaults) shipping to 1 follower. A run is
// rounds of a read phase and a write phase. In the read phase one
// connection reads GET /cycle/{v}, v uniform, through the router in a
// closed loop. In the write phase one connection sends flaps through
// the router as DELETE/POST /edges, open loop at a fixed rate, and
// after each acknowledged write reads that write's source vertex.
//
// Writes are acknowledged when enqueued, cscd's default: the durable
// path (a WAL fsync on each primary and follower, shipping, snapshots)
// runs behind the acknowledgement, and the traced run reports it per
// layer. With ?flush=1 every write waited on 4 fsyncs, and the write
// latencies followed the shared disk, not the program. The phases do
// not overlap: a closed-loop reader beside the writes made the write
// latencies follow how much CPU the host left the process.
//
// One write is in flight at a time, so this stream cannot exercise
// concurrent writes through the router (where groups can diverge).
const (
	// routedK keeps each engine's index (~5 MB of labels), and with it
	// the synchronous snapshot every 64 batches, small: at K=100 a
	// snapshot stalled its writer for ~1 s, as long as a write phase.
	routedK      = 20
	routedGroups = 2
	// routedWriteEvery is the open-loop write spacing of a write phase:
	// well above the ~1 ms timer granularity and below the write path's
	// capacity.
	routedWriteEvery = 50 * time.Millisecond
	routedWarmReads  = 500
	// routedRound is the length of a round: a read phase of
	// routedReadShare of it, then a write phase. Read metrics and the
	// write rate are medians over rounds; the write latencies are pooled
	// over the run, as a round holds only ~10 writes of each kind.
	routedRound     = 3 * time.Second
	routedReadShare = 2.0 / 3
	// routedTableWait bounds the wait at quiesce for the router's table
	// refresh (2 s by default) to catch up with the workers.
	routedTableWait = 6 * time.Second
)

// member is one HTTP node of the cluster.
type member struct {
	name string
	base string
	srv  *http.Server
}

type routedMixed struct {
	cfg   config
	tr    *tracer
	g     *graph.Digraph // the oracle's copy
	dir   string
	flaps *flapper
	rng   *rand.Rand

	primaries []*engine.Engine
	shippers  []*dist.Shipper
	followers []*dist.Follower
	regs      []*obs.Registry // primaries' registries
	router    *dist.Router
	routerReg *obs.Registry
	members   []member // primaries, followers, router (last)

	reader, writer *http.Client

	before       []scrape
	routerBefore scrape
	rings        *ringPoller
	lagMax       atomic.Uint64
	lagSamples   atomic.Int64
}

func (r *routedMixed) routerURL() string { return r.members[len(r.members)-1].base }

func setupRoutedMixed(cfg config, tr *tracer) (system, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	g := communities(routedK, cfg.seed)
	r := &routedMixed{cfg: cfg, tr: tr, g: g.Clone(), flaps: newFlapper(g, cfg.seed),
		rng: rand.New(rand.NewSource(cfg.seed ^ 0x7e57)), reader: httpClient(), writer: httpClient()}
	st.graph = time.Since(t0).Seconds()

	// Every primary and follower owns an index of the same initial graph.
	t1 := time.Now()
	var ixs []csc.Counter
	for i := 0; i < 2*routedGroups; i++ {
		ixs = append(ixs, buildIndex(tr, g.Clone()))
	}
	st.build = time.Since(t1).Seconds()

	t2 := time.Now()
	if err := r.boot(ixs); err != nil {
		r.close()
		return nil, st, err
	}
	st.boot = time.Since(t2).Seconds()

	t3 := time.Now()
	for i := 0; i < routedWarmReads; i++ {
		if _, err := getCycle(r.reader, nil, r.routerURL(), r.rng.Intn(r.g.NumVertices())); err != nil {
			r.close()
			return nil, st, fmt.Errorf("warm-up read: %w", err)
		}
	}
	for i := 0; i < 2; i++ {
		e, del := r.flaps.next()
		if err := writeEdge(r.writer, nil, r.routerURL(), e, del, true); err != nil {
			r.close()
			return nil, st, fmt.Errorf("warm-up write: %w", err)
		}
		if err := mirror(r.g, e, del); err != nil {
			r.close()
			return nil, st, err
		}
	}
	st.warm = time.Since(t3).Seconds()
	return r, st, nil
}

// boot opens the followers, then the primaries shipping to them, then
// the router, each on its own loopback listener.
func (r *routedMixed) boot(ixs []csc.Counter) error {
	var err error
	if r.dir, err = os.MkdirTemp(filepath.Join(r.cfg.out, "tmp"), "routed-"); err != nil {
		return err
	}
	var groups []dist.GroupConfig
	var followers []member
	for gi := 0; gi < routedGroups; gi++ {
		pix, fix := ixs[2*gi], ixs[2*gi+1]
		fname, pname := fmt.Sprintf("g%d.follower", gi), fmt.Sprintf("g%d.primary", gi)

		freg := obs.New()
		f, err := dist.OpenFollower(filepath.Join(r.dir, fname), func() (csc.Counter, error) { return fix, nil },
			dist.FollowerOptions{SnapshotEvery: 64, Metrics: freg})
		if err != nil {
			return err
		}
		r.followers = append(r.followers, f)
		fm, err := r.serve(fname, dist.NewFollowerServer(f, cscdOptions(freg), serve.Options{}, freg))
		if err != nil {
			return err
		}
		followers = append(followers, fm)

		preg := obs.New()
		sh := dist.NewShipper(fm.base, dist.ShipperOptions{Metrics: preg, Client: r.tr.client(pname)})
		opts := cscdOptions(preg)
		opts.Replication = sh
		e, err := engine.Open(filepath.Join(r.dir, pname), func() (csc.Counter, error) { return pix, nil }, opts)
		if err != nil {
			sh.Close()
			return err
		}
		r.primaries, r.shippers, r.regs = append(r.primaries, e), append(r.shippers, sh), append(r.regs, preg)
		pm, err := r.serve(pname, serve.NewHandler(e, nil, 0, serve.Options{}))
		if err != nil {
			return err
		}
		r.members = append(r.members, pm)
		groups = append(groups, dist.GroupConfig{Primary: pm.base, Follower: fm.base})
	}
	r.members = append(r.members, followers...)

	table, err := dist.FetchTable(groups[0].Primary, routedGroups, nil)
	if err != nil {
		return err
	}
	r.routerReg = obs.New()
	r.router, err = dist.NewRouter(table, groups, dist.RouterOptions{Metrics: r.routerReg, Client: r.tr.client("router")})
	if err != nil {
		return err
	}
	rm, err := r.serve("router", r.router.Handler())
	if err != nil {
		return err
	}
	r.members = append(r.members, rm)
	return nil
}

func (r *routedMixed) serve(name string, h http.Handler) (member, error) {
	base, srv, err := listen(r.tr.handler(name, h))
	if err != nil {
		return member{}, err
	}
	r.tr.name(strings.TrimPrefix(base, "http://"), name)
	return member{name: name, base: base, srv: srv}, nil
}

func (r *routedMixed) run(d time.Duration) (*observed, error) {
	o := &observed{}
	for _, reg := range r.regs {
		r.before = append(r.before, scrapeRegistry(reg))
	}
	r.routerBefore = scrapeRegistry(r.routerReg)
	stopLag := make(chan struct{})
	var lagDone sync.WaitGroup
	if r.tr != nil {
		r.rings = pollRings(r.primaries...)
		lagDone.Add(1)
		go func() {
			defer lagDone.Done()
			r.sampleLag(stopLag)
		}()
	}

	var ins, del []int64 // every write of the run, for the pooled metrics
	n := max(int(d/routedRound), 1)
	rd := d / time.Duration(n)
	var err error
	for k := 0; k < n && err == nil; k++ {
		start := time.Now()
		r.reads(o, start.Add(time.Duration(float64(rd)*routedReadShare)))
		if err = r.writes(o, start.Add(rd)); err == nil {
			ins, del = append(ins, o.inserts...), append(del, o.deletes...)
			o.endRound()
		}
	}
	close(stopLag)
	lagDone.Wait()
	if r.rings != nil {
		r.rings.stop()
	}
	if err != nil {
		return nil, err
	}
	o.pooled = map[string]float64{
		"insert_p50_ms": quantile(durs(ins, time.Millisecond), 0.50),
		"insert_p99_ms": quantile(durs(ins, time.Millisecond), 0.99),
		"delete_p50_ms": quantile(durs(del, time.Millisecond), 0.50),
		"delete_p99_ms": quantile(durs(del, time.Millisecond), 0.99),
	}
	return o, nil
}

// reads is one round's read phase: uniform GET /cycle/{v} through the
// router, closed loop, until end.
func (r *routedMixed) reads(o *observed, end time.Time) {
	nv := r.g.NumVertices()
	start := time.Now()
	for {
		t := time.Now()
		if t.After(end) {
			o.readWindow = t.Sub(start)
			return
		}
		if _, err := getCycle(r.reader, r.tr, r.routerURL(), r.rng.Intn(nv)); err != nil {
			o.failed++
		}
		o.reads = append(o.reads, int64(time.Since(t)))
		o.ops++
	}
}

// writes is one round's write phase: flaps through the router, open loop
// every routedWriteEvery until end, the last flap completed. After each
// acknowledged write it reads the write's source vertex through the
// router, untimed: the fraud check on the account that just transacted.
func (r *routedMixed) writes(o *observed, end time.Time) error {
	start := time.Now()
	var prevDone time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * routedWriteEvery)
		if !r.flaps.midFlap() && due.After(end) {
			break
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		o.late = append(o.late, int64(sent.Sub(due)))
		// A write that the previous one (or its check read) held up is
		// timed from when it was due, so a stall is charged to every
		// write queued behind it; any other from when it was sent, so
		// the generator's own wake-up after its sleep is not.
		from := sent
		if prevDone.After(due) {
			from = due
		}
		e, del := r.flaps.next()
		err := writeEdge(r.writer, r.tr, r.routerURL(), e, del, false)
		lat := int64(time.Since(from))
		if del {
			o.deletes = append(o.deletes, lat)
		} else {
			o.inserts = append(o.inserts, lat)
		}
		o.ops++
		if err != nil {
			o.failed++
		} else if err := mirror(r.g, e, del); err != nil {
			return err
		} else {
			if _, err := getCycle(r.reader, r.tr, r.routerURL(), e[0]); err != nil {
				o.failed++
			}
			o.ops++
		}
		prevDone = time.Now()
	}
	o.writeWindow = time.Since(start)
	return nil
}

// sampleLag samples the shippers' replication lag (what the
// cscd_repl_lag_batches gauge reads) every millisecond until stop.
func (r *routedMixed) sampleLag(stop <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			for _, sh := range r.shippers {
				lag := sh.Lag()
				if lag > r.lagMax.Load() {
					r.lagMax.Store(lag)
				}
			}
			r.lagSamples.Add(1)
		}
	}
}

// check waits for the router's shard table to catch up with the workers
// (vertices a write made trivial or cyclic are answered from that
// table), then asks a seeded vertex sample of every primary, every
// follower and the router, and compares with the oracle.
func (r *routedMixed) check() (int, int) {
	// The run's writes were acknowledged when enqueued: apply them on
	// every primary (each ships a batch to its follower before applying
	// it), and wait for the followers to reach their primaries.
	for _, e := range r.primaries {
		e.Flush()
	}
	deadline := time.Now().Add(routedTableWait)
	for !r.followersCurrent() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	for !r.tableCurrent() && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	vs := sampleVertices(r.g.NumVertices(), checkSample, r.cfg.seed)
	want := oracleAnswers(r.g, vs)
	checked, wrong := 0, 0
	for _, m := range r.members {
		checked += len(vs)
		wrong += countWrong(vs, want, func(v int) (answer, error) {
			return getCycle(r.reader, nil, m.base, v)
		})
	}
	return checked, wrong
}

// followersCurrent reports whether every follower has applied all its
// primary's batches.
func (r *routedMixed) followersCurrent() bool {
	for i, f := range r.followers {
		if f.Seq() != r.primaries[i].Seq() {
			return false
		}
	}
	return true
}

// tableCurrent reports whether the router routes exactly the vertices
// group 0's primary has in shards.
func (r *routedMixed) tableCurrent() bool {
	var rt struct {
		Table dist.Table `json:"table"`
	}
	var wt serve.ShardTableJSON
	if getJSON(r.reader, r.routerURL()+"/cluster/table", &rt) != nil ||
		getJSON(r.reader, r.members[0].base+"/cluster/shards", &wt) != nil ||
		len(rt.Table.ShardOf) != len(wt.ShardOf) {
		return false
	}
	for v, s := range wt.ShardOf {
		if (s < 0) != (rt.Table.ShardOf[v] < 0) {
			return false
		}
	}
	return true
}

func getJSON(c *http.Client, url string, v any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	body, err := do(c, nil, req)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func (r *routedMixed) labelBytesPerEdge() float64 {
	st := r.primaries[0].Stats()
	return float64(st.LabelBytes) / float64(st.Edges)
}

func (r *routedMixed) layers(l *layerSet, spans []span) {
	l.callSpans(spans)
	l.set("pll.label_entries", float64(r.primaries[0].Stats().Entries), 1, "group 0 primary's Stats().Entries at quiesce")
	var now []scrape
	for _, reg := range r.regs {
		now = append(now, scrapeRegistry(reg))
	}
	engineLayers(l, sumScrapes(now...).diff(sumScrapes(r.before...)), r.rings)

	rd := scrapeRegistry(r.routerReg).diff(r.routerBefore)
	l.set("dist.retries", rd.vals["cscd_router_retries_total"], 1, "cscd_router_retries_total over the window")
	l.set("dist.no_replica", rd.vals["cscd_router_no_replica_total"], 1, "cscd_router_no_replica_total over the window")
	l.set("dist.repl_lag_batches_max", float64(r.lagMax.Load()), int(r.lagSamples.Load()),
		"max of both shippers' lag (the cscd_repl_lag_batches gauge) sampled every 1 ms")

	children := map[uint64][]*span{}
	for i := range spans {
		if s := &spans[i]; s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var self, proxy, fanout, ship []int64
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == spanServer && s.Node == "router":
			var out int64
			for _, c := range children[s.ID] {
				if c.Name == spanOut {
					out += c.dur()
				}
			}
			if s.Method == http.MethodGet {
				self = append(self, s.dur()-out)
			} else {
				fanout = append(fanout, out)
			}
		case s.Name == spanOut && s.Node == "router" && s.Method == http.MethodGet && strings.HasPrefix(s.Path, "/cycle/"):
			proxy = append(proxy, s.dur())
		case s.Name == spanOut && s.Path == "/repl/append":
			ship = append(ship, s.dur())
		}
	}
	l.set("dist.router_self_us", median(durs(self, time.Microsecond)), len(self),
		"p50 of router handler span minus its outbound spans, GET /cycle")
	l.set("dist.proxy_us", median(durs(proxy, time.Microsecond)), len(proxy), "p50 of the router's outbound GET /cycle round trips")
	l.set("dist.write_fanout_ms", median(durs(fanout, time.Millisecond)), len(fanout),
		"p50 over writes of the sum of the router's per-group write round trips")
	l.dist("dist.ship_ms", ship, time.Millisecond, "spans on the shippers' POST /repl/append round trips")
}

func (r *routedMixed) close() error {
	closeClient(r.reader)
	closeClient(r.writer)
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	// Close, not Shutdown: at quiesce no request is in flight, and a
	// connection a transport dialed but never used would hold Shutdown
	// for 5 s.
	shutdown := func(m member) { keep(m.srv.Close()) }
	// Router first, then primaries (whose Close drains shipping to the
	// still-serving followers), then followers.
	if r.router != nil {
		keep(r.router.Close())
	}
	for i := len(r.members) - 1; i >= 0; i-- {
		if r.members[i].name == "router" {
			shutdown(r.members[i])
		}
	}
	for i, e := range r.primaries {
		shutdown(r.members[i])
		keep(e.Close()) // closes its shipper too
	}
	for i, f := range r.followers {
		if j := len(r.primaries) + i; j < len(r.members) && r.members[j].name != "router" {
			shutdown(r.members[j])
		}
		keep(f.Close())
	}
	if r.dir != "" {
		keep(os.RemoveAll(r.dir))
	}
	return first
}
