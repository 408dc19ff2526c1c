package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// layerDef is one per-layer metric of the traced run and the end-to-end
// metric it is expected to move, on which workload.
type layerDef struct{ name, unit, moves string }

const (
	onRouted = "on routed-mixed"
	stageMv  = "insert_p50_ms and delete_p50_ms on hot-reads; on routed-mixed the durable path behind the acknowledgement"
	// behindAck is what the durable path moves on routed-mixed, whose
	// writes are acknowledged when enqueued.
	behindAck = "nothing gated: the durable path behind the write acknowledgement " + onRouted
)

var layerDefs = func() []layerDef {
	d := []layerDef{
		{"csc.build_s", "s", "setup_s on all three workloads, most on paper-path"},
		{"csc.query_us.p50", "us", "read_p50_us on paper-path; predicted no change on hot-reads"},
		{"csc.query_us.p99", "us", "e2e.read_p99_us on paper-path; predicted no change on hot-reads"},
		{"csc.insert_us.p50", "us", "insert_p50_ms on paper-path"},
		{"csc.insert_us.p99", "us", "e2e.insert_p99_ms on paper-path"},
		{"csc.delete_us.p50", "us", "delete_p50_ms on paper-path"},
		{"csc.delete_us.p99", "us", "e2e.delete_p99_ms on paper-path"},
		{"pll.label_entries", "count", "label_bytes_per_edge and heap_mb on every workload"},
		{"engine.read_ns", "ns", "read_p50_us on hot-reads, by at most its share of the read"},
		{"engine.cache_hit_ratio", "ratio", "read_* on hot-reads and routed-mixed"},
		{"engine.join_us.p50", "us", "e2e.read_p99_us " + onRouted},
		{"engine.join_us.p99", "us", "e2e.read_p99_us " + onRouted},
		{"engine.batch_ops", "count", stageMv},
		{"engine.coalesced_ratio", "ratio", stageMv},
	}
	for _, s := range stageNames {
		d = append(d,
			layerDef{"engine.stage." + s + "_ms.total", "ms", stageMv},
			layerDef{"engine.stage." + s + "_ms.p99", "ms", stageMv})
	}
	d = append(d, []layerDef{
		{"engine.wal_fsync_us.p50", "us", behindAck},
		{"engine.wal_fsync_us.p99", "us", behindAck},
		{"engine.snapshot_ms.p50", "ms", behindAck},
		{"engine.snapshots", "count", behindAck},
		{"serve.handler_us.p50", "us", "read_p50_us on hot-reads"},
		{"serve.handler_us.p99", "us", "e2e.read_p99_us on hot-reads"},
		{"serve.transport_us", "us", "read_p50_us on hot-reads"},
		{"dist.router_self_us", "us", "read_p50_us and the write metrics " + onRouted},
		{"dist.proxy_us", "us", "read_p50_us " + onRouted},
		{"dist.write_fanout_ms", "ms", "insert_p50_ms and delete_p50_ms " + onRouted},
		{"dist.ship_ms.p50", "ms", behindAck},
		{"dist.ship_ms.p99", "ms", behindAck},
		{"dist.repl_lag_batches_max", "count", "none predicted with synchronous shipping; shows a change that trades lag for write latency"},
		{"dist.retries", "count", "ok_ratio " + onRouted},
		{"dist.no_replica", "count", "ok_ratio " + onRouted},
		{"go.gc_pause_ms", "ms", "the e2e.*_p99_* metrics on all three workloads"},
		{"go.gc_cycles", "count", "the e2e.*_p99_* metrics on all three workloads"},
		{"gen.late_ms.p99", "ms", "nothing: checks the open-loop write schedule " + onRouted + " was kept"},
		{"gen.late_ms.max", "ms", "nothing: checks the open-loop write schedule " + onRouted + " was kept"},
		{"setup.graph_s", "s", "setup_s on every workload"},
		{"setup.build_s", "s", "setup_s on every workload"},
		{"setup.boot_s", "s", "setup_s on hot-reads and routed-mixed"},
		{"setup.warm_s", "s", "setup_s on hot-reads and routed-mixed"},
	}...)
	for _, m := range ungatedNames {
		d = append(d, layerDef{"e2e." + m, e2eUnits[m], "nothing gated: the end-to-end " + m + ", reported without a bound"})
	}
	for _, m := range endToEndNames {
		d = append(d, layerDef{"overhead." + m, "%", "nothing: tracing overhead on " + m + ", traced half vs untraced half"})
	}
	return d
}()

// stageNames are the batch-lifecycle stages of the engine's trace ring.
var stageNames = []string{"wait", "coalesce", "wal", "plan", "apply", "rebuild", "hooks"}

// endToEndNames lists the end-to-end metrics in report order.
var endToEndNames = []string{
	"setup_s", "read_p50_us", "insert_p50_ms", "delete_p50_ms",
	"ok_ratio", "heap_mb", "label_bytes_per_edge",
}

// ungatedNames are the end-to-end p99s and rates. The traced run
// reports them, from its untraced half, as per-layer metrics named
// e2e.*, which carry no bound. On a shared 2-vCPU host they follow the
// neighbours' load more than the program: with a fifth of the CPU
// stolen by the hypervisor, a closed loop's rate and every p99 move by
// a quarter or more (a routed write's p99 is a snapshot stall, whose
// length the disk sets), while the p50s of operations far shorter than
// a stolen slice barely move.
var ungatedNames = []string{"read_p99_us", "read_per_s", "insert_p99_ms", "delete_p99_ms", "write_per_s"}

// e2eUnits are the units of the per-round end-to-end metrics.
var e2eUnits = map[string]string{
	"read_p50_us": "us", "read_p99_us": "us", "read_per_s": "1/s",
	"insert_p50_ms": "ms", "insert_p99_ms": "ms", "delete_p50_ms": "ms", "delete_p99_ms": "ms",
	"write_per_s": "1/s",
}

// layerVal is one measured per-layer metric: its value, the number of
// samples it rests on, and what it was computed from.
type layerVal struct {
	v    float64
	n    int
	base string
}

type layerSet struct{ vals map[string]layerVal }

func newLayerSet() *layerSet { return &layerSet{vals: map[string]layerVal{}} }

func (l *layerSet) set(name string, v float64, n int, base string) {
	l.vals[name] = layerVal{v, n, base}
}

// dist sets name.p50 and name.p99 (or only name when q is given) from
// nanosecond samples.
func (l *layerSet) dist(name string, ns []int64, unit time.Duration, base string) {
	xs := durs(ns, unit)
	l.set(name+".p50", quantile(xs, 0.5), len(xs), base)
	l.set(name+".p99", quantile(xs, 0.99), len(xs), base)
}

// callSpans sets the csc.* metrics from the spans around direct index
// calls.
func (l *layerSet) callSpans(spans []span) {
	by := map[string][]int64{}
	for i := range spans {
		if s := &spans[i]; s.Name == spanCall {
			by[s.Path] = append(by[s.Path], s.dur())
		}
	}
	if b := by["csc.build"]; len(b) > 0 {
		l.set("csc.build_s", median(durs(b, time.Second)), len(b), "span around each index build")
	}
	l.dist("csc.query_us", by["csc.query"], time.Microsecond, fmt.Sprintf("spans around every %dth Index.CycleCount", paperQuerySpanEvery))
	l.dist("csc.insert_us", by["csc.insert"], time.Microsecond, "spans around Index.InsertEdge")
	l.dist("csc.delete_us", by["csc.delete"], time.Microsecond, "spans around Index.DeleteEdge")
}

// metrics is the result-line form: every defined per-layer metric, 0
// where the workload does not exercise the layer.
func (l *layerSet) metrics() map[string]metric {
	out := make(map[string]metric, len(layerDefs))
	for _, d := range layerDefs {
		out[d.name] = metric{l.vals[d.name].v, d.unit}
	}
	return out
}

// report prints every per-layer metric with its sample count, base and
// expected effect.
func (l *layerSet) report(w io.Writer, workload string) {
	fmt.Fprintf(w, "# per-layer metrics, workload %s (n = samples; 0 where the layer does no work here)\n", workload)
	for _, d := range layerDefs {
		v, ok := l.vals[d.name]
		base := v.base
		if !ok {
			base = "not exercised by this workload"
		}
		fmt.Fprintf(w, "# %-34s %14.4f %-5s n=%-8d base: %s; moves: %s\n", d.name, v.v, d.unit, v.n, base, d.moves)
	}
}

// runTraced replays the workload twice for half of d each: untraced,
// then with spans. The per-layer metrics come from the traced half (the
// runtime's GC counters from the untraced one); the difference between
// the halves' end-to-end metrics is the tracing overhead.
func runTraced(cfg config, w workload, d time.Duration) (*result, error) {
	u, err := measure(cfg, w, nil, 1, d/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	l := newLayerSet()
	var spans []span
	t, err := measure(cfg, w, tr, 1, d/2, func(sys system) {
		spans = tr.snapshot()
		link(spans)
		sys.layers(l, spans)
	})
	if err != nil {
		return nil, err
	}

	l.set("go.gc_pause_ms", u.gc.pauseNS/1e6, int(u.gc.cycles), "runtime/metrics /sched/pauses/total/gc over the untraced half's window")
	l.set("go.gc_cycles", float64(u.gc.cycles), 1, "runtime/metrics /gc/cycles/total over the untraced half's window")
	if late := t.o.late; len(late) > 0 {
		xs := durs(late, time.Millisecond)
		l.set("gen.late_ms.p99", quantile(xs, 0.99), len(xs), "open-loop write send time minus due time")
		l.set("gen.late_ms.max", quantile(xs, 1), len(xs), "open-loop write send time minus due time")
	}
	for name, v := range map[string]float64{"graph": t.st.graph, "build": t.st.build, "boot": t.st.boot, "warm": t.st.warm} {
		l.set("setup."+name+"_s", v, 1, "the traced set-up's "+name+" step")
	}
	for _, m := range ungatedNames {
		l.set("e2e."+m, u.o.roundMedian(m), len(u.o.rounds), "untraced half, median over its rounds (routed-mixed write latencies: pooled over the half)")
	}
	for _, m := range endToEndNames {
		uv, tv := u.res.Metrics[m].Value, t.res.Metrics[m].Value
		l.set("overhead."+m, 100*ratio(tv-uv, uv), 1, fmt.Sprintf("untraced %.6g, traced %.6g", uv, tv))
	}

	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := dump(path, spans); err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	l.report(os.Stdout, cfg.workload)
	fmt.Printf("# %d spans written to %s\n", len(spans), path)
	fmt.Printf("# end-to-end, untraced half: %s\n", formatMetrics(u.res.Metrics))
	fmt.Printf("# end-to-end, traced half:   %s\n", formatMetrics(t.res.Metrics))

	return &result{
		Correct:   u.res.Correct && t.res.Correct,
		Attempted: u.res.Attempted + t.res.Attempted,
		Failed:    u.res.Failed + t.res.Failed,
		Metrics:   l.metrics(),
	}, nil
}

func formatMetrics(m map[string]metric) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%.6g%s ", k, m[k].Value, m[k].Unit)
	}
	return strings.TrimSpace(b.String())
}
