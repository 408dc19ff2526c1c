package main

import (
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// ringPoller collects every batch-lifecycle trace the engines record
// (the /debug/trace source) while a traced run measures: the ring keeps
// only the last 64 batches, so it is drained every 20 ms.
type ringPoller struct {
	engines []*engine.Engine
	seen    []uint64 // per engine: highest batch seq collected
	traces  []obs.BatchTrace
	stopc   chan struct{}
	done    chan struct{}
	once    sync.Once
}

func pollRings(es ...*engine.Engine) *ringPoller {
	p := &ringPoller{engines: es, seen: make([]uint64, len(es)), stopc: make(chan struct{}), done: make(chan struct{})}
	for i, e := range es {
		p.seen[i] = e.Seq()
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stopc:
				p.drain()
				return
			case <-tick.C:
				p.drain()
			}
		}
	}()
	return p
}

func (p *ringPoller) drain() {
	for i, e := range p.engines {
		for _, t := range e.Traces() {
			if t.Kind == "batch" && t.Seq > p.seen[i] {
				p.traces = append(p.traces, t)
				p.seen[i] = t.Seq
			}
		}
	}
}

// stop takes a last drain and returns once the poller has exited.
func (p *ringPoller) stop() {
	p.once.Do(func() { close(p.stopc) })
	<-p.done
}

// engineLayers sets the engine.* metrics from the engines' registries
// (diffed over the measured window) and their batch traces.
func engineLayers(l *layerSet, d scrape, rings *ringPoller) {
	q, hits := d.vals["cscd_queries_total"], d.vals["cscd_cache_hits_total"]
	l.set("engine.cache_hit_ratio", ratio(hits, q), int(q), "cscd_cache_hits_total / cscd_queries_total over the window")
	join := d.hists["cscd_query_join_seconds"]
	l.set("engine.join_us.p50", join.quantile(0.5)*1e6, int(join.count()), "cscd_query_join_seconds (cache misses), interpolated in octave buckets")
	l.set("engine.join_us.p99", join.quantile(0.99)*1e6, int(join.count()), "cscd_query_join_seconds (cache misses), interpolated in octave buckets")
	b := d.vals["cscd_batches_total"]
	l.set("engine.batch_ops", ratio(d.vals["cscd_ops_applied_total"], b), int(b), "cscd_ops_applied_total / cscd_batches_total")
	enq := d.vals["cscd_ops_enqueued_total"]
	l.set("engine.coalesced_ratio", ratio(d.vals["cscd_ops_coalesced_total"], enq), int(enq), "cscd_ops_coalesced_total / cscd_ops_enqueued_total")
	fs := d.hists["cscd_wal_fsync_seconds"]
	l.set("engine.wal_fsync_us.p50", fs.quantile(0.5)*1e6, int(fs.count()), "cscd_wal_fsync_seconds, interpolated in octave buckets")
	l.set("engine.wal_fsync_us.p99", fs.quantile(0.99)*1e6, int(fs.count()), "cscd_wal_fsync_seconds, interpolated in octave buckets")
	sn := d.hists["cscd_snapshot_seconds"]
	l.set("engine.snapshot_ms.p50", sn.quantile(0.5)*1e3, int(sn.count()), "cscd_snapshot_seconds, interpolated in octave buckets")
	l.set("engine.snapshots", d.vals["cscd_snapshots_total"], 1, "cscd_snapshots_total over the window")

	if rings == nil {
		return
	}
	stage := map[string][]int64{}
	for _, t := range rings.traces {
		stage["wait"] = append(stage["wait"], t.WaitNS)
		for _, s := range t.Stages {
			stage[s.Name] = append(stage[s.Name], s.DurNS)
		}
	}
	for _, name := range stageNames {
		ns := stage[name]
		var sum int64
		for _, x := range ns {
			sum += x
		}
		base := "batch-lifecycle trace ring (/debug/trace), every batch of the window"
		l.set("engine.stage."+name+"_ms.total", float64(sum)/1e6, len(ns), base)
		l.set("engine.stage."+name+"_ms.p99", quantile(durs(ns, time.Millisecond), 0.99), len(ns), base)
	}
}
