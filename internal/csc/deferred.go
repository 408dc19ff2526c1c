package csc

import (
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/pll"
)

// Out-of-band rebuilds: the sharded index's answer to the structural
// cliff. A structural batch on a giant SCC normally rebuilds the whole
// merged or split component inline — the caller (and, in the engine,
// every reader behind the grace period) stalls for the full build. Under
// a deferral threshold (SetDeferThreshold), ApplyBatch's disposition pass
// instead freezes the affected shards: they keep serving their pre-batch
// answers (each shard owns an induced-subgraph copy, so the frozen
// sub-index is self-contained), the batch commits its cheap intra-shard
// work immediately, and the expensive component builds run later —
// typically on a background goroutine — from induced-subgraph snapshots
// captured at plan time. CompleteRebuild swaps the finished shards in
// atomically under the caller's grace period.
//
// Consistency contract: a frozen shard's sub-index receives no ops
// after its freeze point, so its answers are exactly the answers as of
// the last batch before it froze — well-defined staleness, never a
// half-applied state. Ops landing on a frozen shard are dropped from
// streaming (the rebuild, built from the current graph, owns them), and
// any later batch that could move the pending region recomputes the
// whole deferral from the final partition — including un-freezing a
// shard whose subgraph churned back to its frozen state, which makes a
// transient structural flap (bridge down, bridge back up) cost zero
// rebuilds instead of two.

// Rebuild is one pending out-of-band rebuild: the frozen shard slots,
// the final components to build, and induced-subgraph snapshots to
// build them from. Run may execute on any goroutine — it touches only
// the snapshots. CompleteRebuild must run wherever index mutations are
// serialized (the engine's writer goroutine, under its grace period).
type Rebuild struct {
	gen    uint64
	stale  []int32            // frozen shard slots, ascending
	comps  [][]int32          // final components to build (sorted members)
	subs   []*graph.Digraph   // induced snapshots, aligned with comps
	region map[int32]struct{} // every vertex the deferral covers
	opts   Options
	built  []*shard // filled by Run

	// ords carries explicit per-component hub orders (aligned with comps;
	// nil or a nil entry means Run computes the order from strats). The
	// online re-ranker uses it to rebuild a shard under a hit-derived
	// order no strategy could recompute offline.
	ords   []*order.Order
	strats []order.Strategy // per-component strategy tags, aligned with comps

	// frozenAt is when the deferral's shards froze — inherited across
	// supersessions, so it anchors the full stale window a reader could
	// have observed, not just the latest recomputation's.
	frozenAt time.Time
}

// newRebuild makes comps the pending deferral: it freezes the stale
// shard slots, snapshots comps' induced subgraphs from the current
// graph, and covers comps and the frozen shards' members in its region.
func (x *Sharded) newRebuild(comps [][]int32, stale []int32, frozenAt time.Time) *Rebuild {
	x.gen++
	r := &Rebuild{gen: x.gen, stale: stale, comps: comps, opts: x.opts,
		region: make(map[int32]struct{}), frozenAt: frozenAt}
	for _, comp := range comps {
		r.subs = append(r.subs, partition.Induced(x.g, comp))
		for _, v := range comp {
			r.region[v] = struct{}{}
		}
	}
	if x.stale == nil {
		x.stale = make(map[int32]bool)
	}
	for _, s := range stale {
		x.stale[s] = true
		for _, v := range x.shards[s].verts {
			r.region[v] = struct{}{}
		}
	}
	x.pendingReb = r
	return r
}

// FrozenAt is when the deferral's shards began serving stale answers
// (the start of the freeze→swap window observability reports).
func (r *Rebuild) FrozenAt() time.Time { return r.frozenAt }

// Gen is the deferral generation this rebuild belongs to (diagnostics;
// superseding is decided by identity, not generation).
func (r *Rebuild) Gen() uint64 { return r.gen }

// Components is the number of deferred component builds.
func (r *Rebuild) Components() int { return len(r.comps) }

// Vertices is the total vertex count across deferred components.
func (r *Rebuild) Vertices() int {
	n := 0
	for _, c := range r.comps {
		n += len(c)
	}
	return n
}

// StaleSlots returns the frozen shard slots (ascending).
func (r *Rebuild) StaleSlots() []int {
	out := make([]int, len(r.stale))
	for i, s := range r.stale {
		out[i] = int(s)
	}
	return out
}

// Run builds every deferred component from its snapshot. It is safe on
// any goroutine — it reads only the rebuild's own snapshots — and
// idempotent. workers bounds the build parallelism (0 = all cores): one
// component keeps intra-build parallelism, several parallelize across
// components with sequential inner builds, mirroring BuildSharded.
func (r *Rebuild) Run(workers int) {
	if r.built != nil {
		return
	}
	built := make([]*shard, len(r.comps))
	inner := r.opts
	inner.Workers = workers
	if len(r.comps) > 1 {
		inner.Workers = 1
	}
	// comps are emitted largest-first, so forEach's pool keeps the tail
	// short.
	forEach(len(r.comps), workers, func(i int) {
		opts := inner
		strat := opts.Order
		if i < len(r.strats) {
			strat = r.strats[i]
		}
		ord := (*order.Order)(nil)
		if i < len(r.ords) {
			ord = r.ords[i]
		}
		if ord == nil {
			opts.Order = strat
			ord = orderFor(r.subs[i], opts)
		}
		idx, _ := Build(r.subs[i], ord, inner)
		idx.eng.ReleaseScratch()
		built[i] = &shard{verts: r.comps[i], idx: idx, strat: strat}
	})
	r.built = built
}

// CompleteRebuild swaps a finished rebuild in: frozen shards retire and
// the freshly built components install, atomically from the caller's
// point of view (the engine runs it under the grace period). A rebuild
// superseded by a later batch reports ok=false and swaps nothing — run
// the current PendingRebuild instead. The returned stats carry the swap's
// dirty set: every vertex of every frozen shard (its answer moves from
// frozen to current) and of every installed component.
func (x *Sharded) CompleteRebuild(r *Rebuild) (pll.UpdateStats, bool) {
	var st pll.UpdateStats
	if r == nil || r != x.pendingReb {
		x.oobSuperseded++
		return st, false
	}
	if r.built == nil {
		panic("csc: CompleteRebuild before Run")
	}
	start := time.Now()
	for _, s := range r.stale {
		sh := x.shards[s]
		st.EntriesRemoved += sh.idx.EntryCount()
		st.TouchedOwners = append(st.TouchedOwners, touchAll(sh.verts)...)
		delete(x.stale, s)
		x.retire(s)
	}
	for _, sh := range r.built {
		x.install(sh)
		st.EntriesAdded += sh.idx.EntryCount()
		st.Visited += len(sh.verts)
		st.TouchedOwners = append(st.TouchedOwners, touchAll(sh.verts)...)
		x.batchRebuilds++
	}
	x.oobCompleted += len(r.built)
	x.pendingReb = nil
	st.Duration = time.Since(start)
	return st, true
}

// frozenMatches reports whether a frozen shard's sub-index still encodes
// the current induced subgraph of its member set — true exactly when the
// structural churn since its freeze cancelled out.
func frozenMatches(sh *shard, g *graph.Digraph) bool {
	sub := sh.idx.Graph()
	m := 0
	for lv, v := range sh.verts {
		for _, w := range g.Out(int(v)) {
			lw := localIndex(sh.verts, w)
			if lw < 0 {
				continue // cross edge: not part of the induced subgraph
			}
			if !sub.HasEdge(lv, lw) {
				return false
			}
			m++
		}
	}
	return m == sub.NumEdges()
}

// localIndex finds v's position in a sorted member list, -1 when absent.
func localIndex(verts []int32, v int32) int {
	i := sort.Search(len(verts), func(i int) bool { return verts[i] >= v })
	if i < len(verts) && verts[i] == v {
		return i
	}
	return -1
}

// SetDeferThreshold sets the deferral threshold every later update
// applies: a final component of at least n vertices that needs a fresh
// build is deferred — its contributing shards freeze at their pre-batch
// answers — and becomes part of PendingRebuild. n <= 0 never freezes new
// work but still maintains (and may dissolve or inline-complete) a
// pending deferral. The index must not be serialized while a deferral is
// pending — complete or supersede it first.
func (x *Sharded) SetDeferThreshold(n int) { x.deferThreshold = n }

// PendingRebuild returns the current deferral, nil when none: a new
// object whenever an update changed the pending set (superseding any
// earlier one — CompleteRebuild decides by pointer identity), the same
// object while updates leave it alone. The caller owns scheduling: Run
// it (any goroutine), then CompleteRebuild it where mutations are
// serialized.
func (x *Sharded) PendingRebuild() *Rebuild { return x.pendingReb }

// StaleShards lists the frozen shard slots (ascending) — the shards
// serving stale answers until the pending rebuild completes. Empty means
// every answer is current.
func (x *Sharded) StaleShards() []int {
	if len(x.stale) == 0 {
		return nil
	}
	out := make([]int, 0, len(x.stale))
	for s := range x.stale {
		out = append(out, int(s))
	}
	sort.Ints(out)
	return out
}

// OOBRebuilds reports the deferred-rebuild counters: components completed
// out-of-band, and deferrals superseded before completing (including
// those dissolved by cancelling churn).
func (x *Sharded) OOBRebuilds() (completed, superseded int) {
	return x.oobCompleted, x.oobSuperseded
}
