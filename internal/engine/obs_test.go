package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestMetricsExposition: the /metrics families are served and agree with
// Stats — the scrape reads the same counter words, so the values must
// match exactly once the engine is quiescent.
func TestMetricsExposition(t *testing.T) {
	reg := obs.New()
	x, _ := csc.BuildSharded(twoSixRings(t), csc.Options{})
	e := New(x, Options{FlushInterval: -1, Metrics: reg})
	defer e.Close()

	if err := e.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	for v := 0; v < 5; v++ {
		e.CycleCount(v)
		e.CycleCount(v) // second read is a cache hit
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	st := e.Stats()
	for _, want := range []string{
		fmt.Sprintf("cscd_queries_total %d", st.Queries),
		fmt.Sprintf("cscd_cache_hits_total %d", st.CacheHits),
		fmt.Sprintf("cscd_ops_applied_total %d", st.OpsApplied),
		fmt.Sprintf("cscd_batches_total %d", st.Batches),
		fmt.Sprintf("cscd_seq %d", st.Seq),
		"cscd_query_join_seconds_count",
		"cscd_batch_stage_seconds_bucket{stage=\"plan\"",
		`cscd_shard_entries{shard="0"}`,
		`cscd_shard_rebuilds{shard="`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if st.Queries != 10 || st.CacheHits < 5 {
		t.Fatalf("unexpected query stats: %+v", st)
	}
	// The miss-path join histogram saw exactly the cold reads.
	if got := e.joinNS.Snapshot().Count; got != st.Queries-st.CacheHits {
		t.Fatalf("join histogram count %d != cold reads %d", got, st.Queries-st.CacheHits)
	}
}

// TestBatchLifecycleTrace: an applied batch leaves one complete trace
// entry — all six stages in order, the committed sequence number, and
// the shard slots it touched.
func TestBatchLifecycleTrace(t *testing.T) {
	reg := obs.New()
	x, _ := csc.BuildSharded(twoSixRings(t), csc.Options{})
	e := New(x, Options{FlushInterval: -1, Metrics: reg})
	defer e.Close()

	// A chord inside ring A: an intra-shard insert that closes new cycles,
	// so the dirty set stays inside a live shard.
	if err := e.Insert(2, 0); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	traces := e.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	tr := traces[len(traces)-1]
	if tr.Kind != "batch" || tr.Seq != e.Seq() || tr.Ops != 1 || tr.Raw != 1 {
		t.Fatalf("unexpected trace: %+v", tr)
	}
	wantStages := []string{"coalesce", "wal", "plan", "apply", "rebuild", "hooks"}
	if len(tr.Stages) != len(wantStages) {
		t.Fatalf("stages %v", tr.Stages)
	}
	for i, s := range tr.Stages {
		if s.Name != wantStages[i] {
			t.Fatalf("stage %d = %q, want %q", i, s.Name, wantStages[i])
		}
	}
	if tr.TotalNS <= 0 || tr.WaitNS < 0 {
		t.Fatalf("degenerate timings: %+v", tr)
	}
	// Deleting a ring edge splits the shard: the rebuilt slots are listed.
	if len(tr.Shards) == 0 {
		t.Fatalf("no shards recorded: %+v", tr)
	}
}

// TestOOBSwapTrace: a deferring batch marks itself Deferred, and the
// background rebuild's swap lands as its own trace entry carrying the
// freeze→swap stale window.
func TestOOBSwapTrace(t *testing.T) {
	reg := obs.New()
	x, _ := csc.BuildSharded(twoSixRings(t), csc.Options{})
	// A flush interval far longer than the test holds all four ops until
	// the explicit Flush, so they always apply as the one batch whose
	// rebuild is deferred; applying on drain could split them across
	// batches that defer nothing.
	e := New(x, Options{FlushInterval: time.Hour, UpdateWorkers: 1, OOBRebuildThreshold: 8, Metrics: reg})
	defer e.Close()

	for _, del := range [][2]int{{0, 1}, {11, 6}} {
		if err := e.Delete(del[0], del[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, ins := range [][2]int{{0, 6}, {11, 1}} {
		if err := e.Insert(ins[0], ins[1]); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	if err := e.WaitRebuilds(); err != nil {
		t.Fatal(err)
	}

	var deferredBatch, swap *obs.BatchTrace
	traces := e.Traces()
	for i := range traces {
		switch {
		case traces[i].Kind == "batch" && traces[i].Deferred:
			deferredBatch = &traces[i]
		case traces[i].Kind == "oob-swap":
			swap = &traces[i]
		}
	}
	if deferredBatch == nil {
		t.Fatalf("no deferred batch trace in %+v", traces)
	}
	if swap == nil {
		t.Fatalf("no oob-swap trace in %+v", traces)
	}
	if swap.StaleNS <= 0 {
		t.Fatalf("swap has no stale window: %+v", swap)
	}
	if len(swap.Stages) != 2 || swap.Stages[0].Name != "rebuild" || swap.Stages[1].Name != "swap" {
		t.Fatalf("swap stages: %+v", swap.Stages)
	}
	if len(swap.Shards) == 0 {
		t.Fatalf("swap lists no shards: %+v", swap)
	}
	if got := e.staleHist.Snapshot().Count; got != 1 {
		t.Fatalf("stale-window histogram count %d, want 1", got)
	}
	assertOracle(t, "post-swap", e)
}

// BenchmarkObsOverhead measures the cache-hit read path with and without
// metrics enabled. A hit executes no instrumentation at all — no clock
// reads, no histogram writes — so the two arms must sit within noise of
// each other; only the per-query striped counter (present in both) runs.
func BenchmarkObsOverhead(b *testing.B) {
	ring := func() *graph.Digraph {
		g := graph.New(64)
		for k := 0; k < 64; k++ {
			if err := g.AddEdge(k, (k+1)%64); err != nil {
				b.Fatal(err)
			}
		}
		return g
	}
	for _, arm := range []struct {
		name string
		reg  func() *obs.Registry
	}{
		{"noop", func() *obs.Registry { return nil }},
		{"instrumented", obs.New},
	} {
		b.Run(arm.name, func(b *testing.B) {
			x, _ := csc.BuildSharded(ring(), csc.Options{})
			e := New(x, Options{FlushInterval: -1, Metrics: arm.reg()})
			defer e.Close()
			for v := 0; v < 64; v++ {
				e.CycleCount(v) // warm the cache: the benchmark loop is all hits
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.CycleCount(i & 63)
			}
		})
	}
}
