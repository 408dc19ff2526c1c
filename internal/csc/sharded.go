package csc

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bfscount"
	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/pll"
)

// Sharded is the SCC-partitioned form of the CSC index. Every directed
// cycle lies inside one strongly connected component, so the condensation
// is a free decomposition: trivial (single-vertex) components answer
// CycleCount = 0 with no labels at all, each non-trivial component gets
// an independent monolithic Index over its induced subgraph, and queries
// route through a vertex→shard table. Cross-component edges are kept in
// the graph but carry no labels.
//
// Dynamic updates keep the partition correct through one planner,
// ApplyBatch (InsertEdge and DeleteEdge are one-op batches). Intra-shard
// edges stream through the shard's own INCCNT/decremental maintenance; a
// batch that merges components rebuilds exactly each merged component,
// and one that splits a component rebuilds only its surviving
// sub-components. Everything else — cross-component inserts that close
// no cycle, deletes of label-free edges — is O(reachability check) or
// free. Under a deferral threshold, large rebuilds run out of band
// (deferred.go).
type Sharded struct {
	g    *graph.Digraph
	opts Options

	// shards holds the live sub-indexes; slots become nil when a merge or
	// split retires a shard and are reused for new ones.
	shards []*shard
	free   []int32 // retired slot ids available for reuse

	shardOf []int32 // vertex → shard slot, -1 for trivial components
	localID []int32 // vertex → id inside its shard's subgraph

	// merges counts built components drawn from more than one pre-update
	// component, splits counts retired shards whose members landed in
	// more than one final component (diagnostics).
	merges, splits int
	batchRebuilds  int // fresh component builds, inline and out of band

	// slotRebuilds counts fresh installs per shard slot (grown lazily —
	// slots past its length have seen none). Slot reuse is deliberate:
	// the per-shard gauge tracks churn at the serving slot, which is the
	// granularity /metrics exposes.
	slotRebuilds []uint64

	// Out-of-band rebuild state (deferred.go). stale marks shard slots
	// frozen at their pre-deferral answers; pendingReb is the deferral
	// that will replace them; deferThreshold is the component size from
	// which builds defer (SetDeferThreshold; <= 0 never freezes).
	stale                       map[int32]bool
	pendingReb                  *Rebuild
	gen                         uint64
	deferThreshold              int
	oobCompleted, oobSuperseded int
}

// shard is one non-trivial SCC: its member vertices (sorted ascending —
// position is the local id), the monolithic index over the induced
// subgraph, and the ordering strategy that produced the index's hub
// order (provenance — the order itself lives in the index).
type shard struct {
	verts []int32
	idx   *Index
	strat order.Strategy
}

// BuildSharded partitions g by condensation and builds one monolithic CSC
// index per non-trivial component, in parallel across components (the
// rank-batched parallel construction is used inside a component when it
// is the only one). The index takes ownership of g.
func BuildSharded(g *graph.Digraph, opts Options) (*Sharded, pll.BuildStats) {
	start := time.Now()
	n := g.NumVertices()
	x := &Sharded{
		g:       g,
		opts:    opts,
		shardOf: make([]int32, n),
		localID: make([]int32, n),
	}
	for v := range x.shardOf {
		x.shardOf[v] = -1
		x.localID[v] = -1
	}
	comps := partition.SCC(g).NonTrivial()
	x.shards = make([]*shard, len(comps))
	for sid, verts := range comps {
		for li, v := range verts {
			x.shardOf[v] = int32(sid)
			x.localID[v] = int32(li)
		}
	}

	// One big component keeps the intra-build parallelism; many components
	// parallelize across shards with sequential inner builds instead.
	inner := opts
	outer := 1
	if len(comps) > 1 {
		inner.Workers = 1
		outer = opts.Workers
	}
	// Schedule largest components first so the tail of the pool is short.
	sched := make([]int, len(comps))
	for i := range sched {
		sched[i] = i
	}
	sort.Slice(sched, func(a, b int) bool { return len(comps[sched[a]]) > len(comps[sched[b]]) })
	forEach(len(sched), outer, func(i int) {
		sid := sched[i]
		x.shards[sid] = buildShard(g, comps[sid], inner)
	})

	st := x.stats()
	st.Duration = time.Since(start)
	return x, st
}

// buildShard constructs one component's sub-index over its induced
// subgraph with the component's own order under the configured strategy.
func buildShard(g *graph.Digraph, verts []int32, opts Options) *shard {
	sub := partition.Induced(g, verts)
	idx, _ := Build(sub, orderFor(sub, opts), opts)
	return &shard{verts: verts, idx: idx, strat: opts.Order}
}

// orderFor computes the hub order for one component's induced subgraph
// under the configured strategy, falling back to degree on an
// uncomputable strategy value (Hits, or an unknown byte from a hostile
// file — the order vector itself always round-trips explicitly).
func orderFor(sub *graph.Digraph, opts Options) *order.Order {
	ord, err := order.Compute(sub, opts.Order, opts.OrderSeed)
	if err != nil {
		return order.ByDegree(sub)
	}
	return ord
}

func (x *Sharded) stats() pll.BuildStats {
	var st pll.BuildStats
	for _, sh := range x.shards {
		if sh == nil {
			continue
		}
		s := sh.idx.eng.Stats()
		st.Entries += s.Entries
		st.Canonical += s.Canonical
		st.NonCanonical += s.NonCanonical
	}
	st.Bytes = 8 * st.Entries
	return st
}

// CycleCount answers SCCnt(v). Vertices in trivial components — and
// out-of-range ids — report no cycle without touching any labels.
func (x *Sharded) CycleCount(v int) (length int, count uint64) {
	if v < 0 || v >= len(x.shardOf) {
		return bfscount.NoCycle, 0
	}
	s := x.shardOf[v]
	if s < 0 {
		return bfscount.NoCycle, 0
	}
	return x.shards[s].idx.CycleCount(int(x.localID[v]))
}

// CycleCountBounded is CycleCount restricted to cycle lengths ≤ maxLen
// (same contract as Index.CycleCountBounded). Trivial-component vertices
// short-circuit without touching any labels.
func (x *Sharded) CycleCountBounded(v, maxLen int) (length int, count uint64) {
	if v < 0 || v >= len(x.shardOf) {
		return bfscount.NoCycle, 0
	}
	s := x.shardOf[v]
	if s < 0 {
		return bfscount.NoCycle, 0
	}
	return x.shards[s].idx.CycleCountBounded(int(x.localID[v]), maxLen)
}

// CycleCountAll evaluates SCCnt for every vertex (same contract as
// Index.CycleCountAll: workers 0 = all cores, clamped to the vertex
// count; read-only, so safe without concurrent updates).
func (x *Sharded) CycleCountAll(workers int) (lengths []int, counts []uint64) {
	return cycleCountAll(len(x.shardOf), workers, x.CycleCount)
}

// InsertEdge and DeleteEdge apply one edge update as a one-op ApplyBatch.
func (x *Sharded) InsertEdge(a, b int) (pll.UpdateStats, error) { return x.applyOne(Ins(a, b)) }
func (x *Sharded) DeleteEdge(a, b int) (pll.UpdateStats, error) { return x.applyOne(Del(a, b)) }

// applyOne runs op as a one-op batch. A rejected op reports its bare
// graph.Err* sentinel, as the per-op Counter contract has it, rather
// than ValidateBatch's positional wrapping.
func (x *Sharded) applyOne(op EdgeOp) (pll.UpdateStats, error) {
	st, err := x.ApplyBatch([]EdgeOp{op}, x.opts.Workers)
	if bare := errors.Unwrap(err); bare != nil {
		err = bare
	}
	return st, err
}

// retire clears a shard slot and unmaps its vertices (they are either
// re-installed into a new shard or left trivial by the caller).
func (x *Sharded) retire(s int32) {
	for _, v := range x.shards[s].verts {
		x.shardOf[v] = -1
		x.localID[v] = -1
	}
	x.shards[s] = nil
	x.free = append(x.free, s)
}

// install places a freshly built shard into a free slot (or a new one)
// and points its vertices at it.
func (x *Sharded) install(sh *shard) {
	var s int32
	if len(x.free) > 0 {
		s = x.free[len(x.free)-1]
		x.free = x.free[:len(x.free)-1]
		x.shards[s] = sh
	} else {
		s = int32(len(x.shards))
		x.shards = append(x.shards, sh)
	}
	for li, v := range sh.verts {
		x.shardOf[v] = s
		x.localID[v] = int32(li)
	}
	for int(s) >= len(x.slotRebuilds) {
		x.slotRebuilds = append(x.slotRebuilds, 0)
	}
	x.slotRebuilds[s]++
}

// translateOwners rewrites a shard-local update's touched owners (Gb
// vertices of the shard's conversion) into Gb vertices of the global
// graph's conversion, preserving the in/out side, so consumers like the
// top-k monitor keep applying bipartite.Original unchanged.
func (x *Sharded) translateOwners(sh *shard, st *pll.UpdateStats) {
	for i, o := range st.TouchedOwners {
		gv := int(sh.verts[bipartite.Original(int(o))])
		if bipartite.IsIn(int(o)) {
			st.TouchedOwners[i] = int32(bipartite.InVertex(gv))
		} else {
			st.TouchedOwners[i] = int32(bipartite.OutVertex(gv))
		}
	}
}

// touchAll marks every vertex of a rebuilt component as touched (its
// v_in Gb id stands for the couple).
func touchAll(verts []int32) []int32 {
	out := make([]int32, len(verts))
	for i, v := range verts {
		out[i] = int32(bipartite.InVertex(int(v)))
	}
	return out
}

// AddVertex grows the graph by one isolated vertex — a fresh trivial
// component, so no shard changes.
func (x *Sharded) AddVertex() (int, error) {
	v := x.g.AddVertex()
	x.shardOf = append(x.shardOf, -1)
	x.localID = append(x.localID, -1)
	return v, nil
}

// DetachVertex removes every incident edge of v through maintained
// deletions, leaving v isolated (and trivial).
func (x *Sharded) DetachVertex(v int) (int, error) {
	return detachVertex(x.g, v, x.DeleteEdge)
}

// Graph returns the original graph. Callers must not mutate it directly.
func (x *Sharded) Graph() *graph.Digraph { return x.g }

// EntryCount sums label entries across live shards.
func (x *Sharded) EntryCount() int {
	total := 0
	for _, sh := range x.shards {
		if sh != nil {
			total += sh.idx.EntryCount()
		}
	}
	return total
}

// Bytes is the label footprint (8 bytes per entry).
func (x *Sharded) Bytes() int { return 8 * x.EntryCount() }

// RefreezeLabels re-packs every shard's thawed label lists back into
// its compressed arena, returning the total lists re-encoded.
func (x *Sharded) RefreezeLabels() int {
	total := 0
	for _, sh := range x.shards {
		if sh != nil {
			total += sh.idx.RefreezeLabels()
		}
	}
	return total
}

// CompressedBytes sums the physical compressed label footprint across
// shards (0 when labels are uncompressed).
func (x *Sharded) CompressedBytes() int {
	total := 0
	for _, sh := range x.shards {
		if sh != nil {
			total += sh.idx.CompressedBytes()
		}
	}
	return total
}

// ReducedBytes sums the couple-merged footprint across shards.
func (x *Sharded) ReducedBytes() int {
	total := 0
	for _, sh := range x.shards {
		if sh != nil {
			total += sh.idx.ReducedBytes()
		}
	}
	return total
}

// NumShards counts the live non-trivial components.
func (x *Sharded) NumShards() int {
	n := 0
	for _, sh := range x.shards {
		if sh != nil {
			n++
		}
	}
	return n
}

// TrivialVertices counts vertices outside every shard — the label-free
// share of the graph.
func (x *Sharded) TrivialVertices() int {
	n := 0
	for _, s := range x.shardOf {
		if s < 0 {
			n++
		}
	}
	return n
}

// Rebuilds reports how many partition changes updates rebuilt inline:
// one merge per merged final component, one split per split shard.
func (x *Sharded) Rebuilds() (merges, splits int) { return x.merges, x.splits }

// ShardStat is one live shard's footprint for per-shard gauges.
type ShardStat struct {
	Slot       int            // serving slot id
	Vertices   int            // member vertices
	Entries    int            // label entries
	LabelBytes int            // label footprint (8 bytes per entry)
	Rebuilds   uint64         // fresh installs this slot has served
	Stale      bool           // frozen, serving pre-deferral answers
	Order      order.Strategy // strategy that produced the shard's hub order
}

// ShardStats reports every live shard's footprint, ordered by slot —
// the scrape-time source for per-shard metrics.
func (x *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, 0, len(x.shards))
	for si, sh := range x.shards {
		if sh == nil {
			continue
		}
		entries := sh.idx.EntryCount()
		st := ShardStat{
			Slot:       si,
			Vertices:   len(sh.verts),
			Entries:    entries,
			LabelBytes: 8 * entries,
			Stale:      x.stale[int32(si)],
			Order:      sh.strat,
		}
		if si < len(x.slotRebuilds) {
			st.Rebuilds = x.slotRebuilds[si]
		}
		out = append(out, st)
	}
	return out
}

// ShardOf returns the shard slot serving v, or -1 for trivial vertices
// (tests and diagnostics).
func (x *Sharded) ShardOf(v int) int { return int(x.shardOf[v]) }

// ShardMap returns a copy of the full vertex→shard-slot table (-1 for
// trivial vertices) — the routing-table source for a cluster deployment.
func (x *Sharded) ShardMap() []int32 {
	out := make([]int32, len(x.shardOf))
	copy(out, x.shardOf)
	return out
}

// liveShards returns the live shards sorted by smallest member vertex —
// the stable order serialization and validation walk them in.
func (x *Sharded) liveShards() []*shard {
	var out []*shard
	for _, sh := range x.shards {
		if sh != nil {
			out = append(out, sh)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].verts[0] < out[j].verts[0] })
	return out
}

// checkConsistent validates the vertex→shard table against the shards
// (tests only).
func (x *Sharded) checkConsistent() error {
	for _, sh := range x.shards {
		if sh == nil {
			continue
		}
		for li, v := range sh.verts {
			s := x.shardOf[v]
			if s < 0 || x.shards[s] != sh || int(x.localID[v]) != li {
				return fmt.Errorf("csc: vertex %d maps to shard %d/local %d, expected %d", v, s, x.localID[v], li)
			}
		}
	}
	return nil
}
