package csc

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/testgraphs"
)

// twoRingsBridged builds ring A over 0..5, ring B over 6..11, and the
// bridges 5→6 and 11→0, which tie everything into one 12-vertex SCC.
func twoRingsBridged(t *testing.T) *graph.Digraph {
	t.Helper()
	g := graph.New(12)
	for k := 0; k < 6; k++ {
		if err := g.AddEdge(k, (k+1)%6); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(6+k, 6+(k+1)%6); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(5, 6); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(11, 0); err != nil {
		t.Fatal(err)
	}
	return g
}

// drainRebuild completes a pending rebuild the way the engine does:
// run, swap, and assert the swap was accepted.
func drainRebuild(t *testing.T, x *Sharded, r *Rebuild) {
	t.Helper()
	if r == nil {
		return
	}
	r.Run(2)
	if _, ok := x.CompleteRebuild(r); !ok {
		t.Fatal("CompleteRebuild rejected the current pending rebuild")
	}
}

func mustConsistent(t *testing.T, x *Sharded, tag string) {
	t.Helper()
	if err := x.checkConsistent(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

// TestDeferredEquivalenceMetamorphic is the out-of-band acceptance
// suite: random batches applied under a deferral threshold — with
// rebuilds completed at random points, superseded by later batches, or
// left pending across many batches — must, once drained, answer
// identically on every vertex to inline ApplyBatch on a twin index.
func TestDeferredEquivalenceMetamorphic(t *testing.T) {
	trials := []struct {
		name string
		g    *graph.Digraph
	}{
		{"giant-scc", testgraphs.GiantSCC(60, 200, 3)},
		{"many-small", testgraphs.ManySmallSCC(8, 5, 10, 4)},
		{"dag-heavy", testgraphs.DAGHeavy(80, 220, 6, 5)},
	}
	for _, tr := range trials {
		t.Run(tr.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(77))
			inline, _ := BuildSharded(tr.g.Clone(), Options{})
			deferred, _ := BuildSharded(tr.g.Clone(), Options{})
			deferred.SetDeferThreshold(5)
			batches := randomBatches(r, tr.g, 12, 6)
			for i, batch := range batches {
				if _, err := inline.ApplyBatch(batch, 1); err != nil {
					t.Fatalf("batch %d inline: %v", i, err)
				}
				_, err := deferred.ApplyBatch(batch, 2)
				if err != nil {
					t.Fatalf("batch %d deferred: %v", i, err)
				}
				pending := deferred.PendingRebuild()
				// Complete the rebuild only sometimes: left-pending
				// deferrals must survive (and stay correct through) later
				// batches that drop ops into their frozen shards.
				if pending != nil && r.Intn(3) == 0 {
					drainRebuild(t, deferred, pending)
				}
				mustConsistent(t, deferred, "mid-run")
			}
			drainRebuild(t, deferred, deferred.PendingRebuild())
			mustConsistent(t, deferred, "drained")
			if got := deferred.StaleShards(); len(got) != 0 {
				t.Fatalf("stale shards %v after draining every rebuild", got)
			}
			wantL, wantC := countsOf(inline)
			gotL, gotC := countsOf(deferred)
			assertSameCounts(t, "deferred vs inline", wantL, wantC, gotL, gotC)
		})
	}
}

// A deferring batch must commit immediately while the affected shards
// keep serving their exact pre-batch answers, and the swap must bring
// them to the exact post-batch answers — with a dirty set covering the
// whole region, since that is what the engine's cache invalidation and
// top-k rescore hang off.
func TestDeferredStaleWindowServesPreBatchAnswers(t *testing.T) {
	g := graph.New(12)
	for k := 0; k < 6; k++ {
		if err := g.AddEdge(k, (k+1)%6); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(6+k, 6+(k+1)%6); err != nil {
			t.Fatal(err)
		}
	}
	x, _ := BuildSharded(g, Options{})
	preL, preC := countsOf(x)

	// One batch: break ring A and bridge the two rings into a single
	// 12-cycle. The merged component is ≥ threshold, so it defers.
	batch := []EdgeOp{Del(0, 1), Ins(0, 6), Ins(11, 1)}
	x.SetDeferThreshold(8)
	_, err := x.ApplyBatch(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	pending := x.PendingRebuild()
	if pending == nil {
		t.Fatal("merge of 12 vertices under threshold 8 did not defer")
	}
	if got := x.StaleShards(); len(got) != 2 {
		t.Fatalf("stale shards %v, want both ring shards frozen", got)
	}
	// The graph already moved; the frozen shards still answer as of the
	// pre-batch state: every vertex on its 6-ring.
	mustConsistent(t, x, "stale window")
	for v := 0; v < 12; v++ {
		l, c := x.CycleCount(v)
		if l != preL[v] || c != preC[v] {
			t.Fatalf("stale window vertex %d: got (%d,%d), want pre-batch (%d,%d)", v, l, c, preL[v], preC[v])
		}
	}

	// Swap in: answers snap to the post-batch truth, dirty set covers
	// every vertex of the region.
	pending.Run(2)
	st, ok := x.CompleteRebuild(pending)
	if !ok {
		t.Fatal("CompleteRebuild rejected the pending rebuild")
	}
	dirty := DirtyVertices(st)
	if len(dirty) != 12 {
		t.Fatalf("swap dirty set %v, want all 12 region vertices", dirty)
	}
	if !sort.IntsAreSorted(dirty) {
		t.Fatalf("dirty set not sorted: %v", dirty)
	}
	mustConsistent(t, x, "after swap")
	fresh, _ := BuildSharded(x.g.Clone(), Options{})
	wantL, wantC := countsOf(fresh)
	gotL, gotC := countsOf(x)
	assertSameCounts(t, "after swap", wantL, wantC, gotL, gotC)
	if got := x.StaleShards(); len(got) != 0 {
		t.Fatalf("stale shards %v after swap", got)
	}
	if done, _ := x.OOBRebuilds(); done != 1 {
		t.Fatalf("completed rebuilds %d, want 1", done)
	}
}

// A flapped structural edge — deleted, deferral taken, re-inserted
// before the rebuild ran — must dissolve the deferral with zero
// rebuilds: the frozen shard's subgraph matches the graph again, so it
// unfreezes owing nothing. This is the cliff the out-of-band design
// exists for: churn at a component boundary costs the inline engine a
// full rebuild per flap and costs the deferred engine nothing.
func TestDeferredFlapDissolves(t *testing.T) {
	x, _ := BuildSharded(twoRingsBridged(t), Options{})
	preL, preC := countsOf(x)

	// Deleting a bridge splits the 12-SCC into the two 6-rings: both
	// halves are ≥ threshold 4, so the split defers and the shard freezes.
	x.SetDeferThreshold(4)
	_, err := x.ApplyBatch([]EdgeOp{Del(5, 6)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pending := x.PendingRebuild()
	if pending == nil {
		t.Fatal("split did not defer")
	}
	if got := x.StaleShards(); len(got) != 1 {
		t.Fatalf("stale shards %v, want the one 12-vertex shard", got)
	}
	mustConsistent(t, x, "deferred split")

	// Re-insert: the graph is back to the frozen state, the deferral
	// dissolves, and nothing was ever rebuilt.
	if _, err := x.InsertEdge(5, 6); err != nil {
		t.Fatal(err)
	}
	if r := x.PendingRebuild(); r != nil {
		t.Fatalf("deferral did not dissolve on flap: %+v", r.Components())
	}
	if got := x.StaleShards(); len(got) != 0 {
		t.Fatalf("stale shards %v after flap", got)
	}
	if done, _ := x.OOBRebuilds(); done != 0 {
		t.Fatalf("flap cost %d rebuilds, want 0", done)
	}
	mustConsistent(t, x, "after flap")
	gotL, gotC := countsOf(x)
	assertSameCounts(t, "after flap", preL, preC, gotL, gotC)
}

// A rebuild that finishes after a later batch changed its region must
// be discarded, and the replacement deferral must swap in cleanly.
func TestDeferredSupersededRebuildDiscarded(t *testing.T) {
	x, _ := BuildSharded(twoRingsBridged(t), Options{})

	x.SetDeferThreshold(4)
	_, err := x.ApplyBatch([]EdgeOp{Del(5, 6)}, 2) // split defers: rebuild r1
	if err != nil {
		t.Fatal(err)
	}
	r1 := x.PendingRebuild()
	if r1 == nil {
		t.Fatal("split did not defer")
	}

	// A second structural batch inside the region: r1 is superseded by a
	// fresh deferral computed against the new edge set.
	if _, err := x.DeleteEdge(11, 0); err != nil {
		t.Fatal(err)
	}
	r2 := x.PendingRebuild()
	if r2 == r1 {
		t.Fatal("region-touching batch did not supersede the pending rebuild")
	}

	// The stale rebuild completes late and must be rejected wholesale.
	r1.Run(1)
	if _, ok := x.CompleteRebuild(r1); ok {
		t.Fatal("superseded rebuild was swapped in")
	}
	if _, superseded := x.OOBRebuilds(); superseded == 0 {
		t.Fatal("superseded counter never moved")
	}
	drainRebuild(t, x, x.PendingRebuild())
	mustConsistent(t, x, "after supersede")

	fresh, _ := BuildSharded(x.g.Clone(), Options{})
	wantL, wantC := countsOf(fresh)
	gotL, gotC := countsOf(x)
	assertSameCounts(t, "after supersede", wantL, wantC, gotL, gotC)
}
