package csc

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pll"
)

// OpKind discriminates batch edge operations.
type OpKind uint8

const (
	// OpInsert inserts a directed edge.
	OpInsert OpKind = 1
	// OpDelete deletes a directed edge.
	OpDelete OpKind = 2
)

// EdgeOp is one edge operation of an update batch.
type EdgeOp struct {
	Kind OpKind
	A, B int32
}

// Ins and Del are EdgeOp constructors (tests and batch builders).
func Ins(a, b int) EdgeOp { return EdgeOp{Kind: OpInsert, A: int32(a), B: int32(b)} }
func Del(a, b int) EdgeOp { return EdgeOp{Kind: OpDelete, A: int32(a), B: int32(b)} }

var errUnknownOp = errors.New("csc: unknown batch op kind")

// ValidateBatch checks that batch is a valid op sequence against g by
// simulating edge presence: every insert must add an absent edge and
// every delete must remove a present one, net of earlier ops in the same
// batch. ApplyBatch calls it before touching anything, so a rejected
// batch leaves the index untouched.
func ValidateBatch(g *graph.Digraph, batch []EdgeOp) error {
	n := g.NumVertices()
	present := make(map[[2]int32]bool, len(batch))
	for i, op := range batch {
		a, b := int(op.A), int(op.B)
		if op.Kind != OpInsert && op.Kind != OpDelete {
			return fmt.Errorf("%w (op %d)", errUnknownOp, i)
		}
		if a < 0 || a >= n || b < 0 || b >= n {
			return fmt.Errorf("op %d (%d,%d): %w", i, a, b, graph.ErrVertexRange)
		}
		if a == b {
			return fmt.Errorf("op %d (%d,%d): %w", i, a, b, graph.ErrSelfLoop)
		}
		k := [2]int32{op.A, op.B}
		cur, seen := present[k]
		if !seen {
			cur = g.HasEdge(a, b)
		}
		if op.Kind == OpInsert {
			if cur {
				return fmt.Errorf("op %d (%d,%d): %w", i, a, b, graph.ErrDuplicateEdge)
			}
			present[k] = true
		} else {
			if !cur {
				return fmt.Errorf("op %d (%d,%d): %w", i, a, b, graph.ErrMissingEdge)
			}
			present[k] = false
		}
	}
	return nil
}

// coalesceBatch reduces a validated batch to its net effect against the
// live graph: an insert+delete pair of the same edge cancels (whichever
// order it arrived in), leaving one op per edge whose final state differs
// from the live graph, in first-touch order. This mirrors the engine's
// mailbox coalescing, so direct ApplyBatch callers get the same
// semantics; query answers depend only on the final edge set, so the net
// batch is observationally equivalent to the full sequence.
func coalesceBatch(g *graph.Digraph, batch []EdgeOp) []EdgeOp {
	if len(batch) == 1 {
		return batch // a validated op toggles its edge: its own net effect
	}
	base := make(map[[2]int32]bool, len(batch))
	eff := make(map[[2]int32]bool, len(batch))
	var touch [][2]int32
	for _, op := range batch {
		k := [2]int32{op.A, op.B}
		if _, seen := eff[k]; !seen {
			base[k] = g.HasEdge(int(op.A), int(op.B))
			touch = append(touch, k)
		}
		// The batch is validated, so every op strictly toggles its edge.
		eff[k] = op.Kind == OpInsert
	}
	out := make([]EdgeOp, 0, len(touch))
	for _, k := range touch {
		if eff[k] == base[k] {
			continue
		}
		kind := OpDelete
		if eff[k] {
			kind = OpInsert
		}
		out = append(out, EdgeOp{Kind: kind, A: k[0], B: k[1]})
	}
	return out
}

// accumulate folds one op's stats into a batch aggregate.
func accumulate(agg *pll.UpdateStats, st pll.UpdateStats) {
	agg.AffectedHubs += st.AffectedHubs
	agg.Visited += st.Visited
	agg.EntriesAdded += st.EntriesAdded
	agg.EntriesChanged += st.EntriesChanged
	agg.EntriesRemoved += st.EntriesRemoved
	agg.TouchedOwners = append(agg.TouchedOwners, st.TouchedOwners...)
}

// ApplyBatch applies the batch's net effect through the monolithic
// index's own INCCNT/decremental maintenance, one op at a time — the
// sequential fallback of the Counter batch contract. workers is ignored.
func (x *Index) ApplyBatch(batch []EdgeOp, workers int) (pll.UpdateStats, error) {
	_ = workers
	var agg pll.UpdateStats
	if len(batch) == 0 {
		return agg, nil
	}
	if err := ValidateBatch(x.g, batch); err != nil {
		return agg, err
	}
	start := time.Now()
	batch = coalesceBatch(x.g, batch)
	for _, op := range batch {
		var st pll.UpdateStats
		var err error
		if op.Kind == OpInsert {
			st, err = x.InsertEdge(int(op.A), int(op.B))
		} else {
			st, err = x.DeleteEdge(int(op.A), int(op.B))
		}
		if err != nil {
			// Unreachable: ValidateBatch simulated the exact sequence.
			return agg, err
		}
		accumulate(&agg, st)
	}
	agg.Duration = time.Since(start)
	return agg, nil
}

// batchPlan classifies a batch against the pre-batch shard table.
type batchPlan struct {
	order      []int32            // stream shard slots, ascending
	streams    map[int32][]EdgeOp // shard slot → its intra-shard ops, in batch order
	dirty      map[int32]bool     // stream shards holding at least one delete
	structural []EdgeOp           // ops crossing shards or touching trivial vertices
	// touchedPending marks an op landing inside the pending deferral's
	// region: the deferral must be recomputed against the batch's final
	// edge set.
	touchedPending bool
}

// planBatch groups the batch's ops by shard. An op whose endpoints sit in
// the same live shard joins that shard's ordered stream, unless the shard
// is frozen: then the pending rebuild, built from the final graph, owns
// the op's effect and the op is dropped. Everything else — cross-shard
// edges, edges touching trivial vertices — is structural and can only
// matter through the partition reconciliation.
func (x *Sharded) planBatch(batch []EdgeOp) batchPlan {
	p := batchPlan{streams: make(map[int32][]EdgeOp), dirty: make(map[int32]bool)}
	var region map[int32]struct{}
	if x.pendingReb != nil {
		region = x.pendingReb.region
	}
	for _, op := range batch {
		_, inA := region[op.A]
		_, inB := region[op.B]
		p.touchedPending = p.touchedPending || inA || inB
		s := x.shardOf[op.A]
		if s >= 0 && s == x.shardOf[op.B] {
			if x.stale[s] {
				continue
			}
			if _, ok := p.streams[s]; !ok {
				p.order = append(p.order, s)
			}
			p.streams[s] = append(p.streams[s], op)
			if op.Kind == OpDelete {
				p.dirty[s] = true
			}
		} else {
			p.structural = append(p.structural, op)
		}
	}
	sort.Slice(p.order, func(i, j int) bool { return p.order[i] < p.order[j] })
	return p
}

// batchTask is one unit of per-shard batch work: either an ordered update
// stream against an intact shard, or a fresh build of one final
// component. Tasks touch disjoint shards, so a worker pool runs them
// concurrently.
type batchTask struct {
	sh    *shard   // stream target; also receives the built shard
	ops   []EdgeOp // stream ops in batch order (global vertex ids)
	build []int32  // when non-nil, build a fresh shard over these vertices
	st    pll.UpdateStats
	err   error
}

// ApplyBatch is the sharded index's one mutation path; InsertEdge and
// DeleteEdge are one-op batches. The batch is validated and
// net-coalesced, the global graph moves to its final edge set, and the
// planner runs in three steps: planBatch groups the ops by shard,
// reconcile computes the final partition of every shard the batch can
// have moved (a pure function of the final edge set, so once per batch
// instead of once per edge), and dispose decides per shard whether to
// stream, retire, build, freeze or unfreeze. The resulting per-shard
// work — ordered intra-shard update streams on intact shards, at most one
// fresh build per merged or split component — runs concurrently on
// workers goroutines (0 = all cores). Ops confined to trivial components
// that close no cycle touch no labels at all. Under a deferral threshold
// (SetDeferThreshold) large builds move out of band instead (deferred.go).
func (x *Sharded) ApplyBatch(batch []EdgeOp, workers int) (pll.UpdateStats, error) {
	var agg pll.UpdateStats
	if len(batch) == 0 {
		return agg, nil
	}
	if err := ValidateBatch(x.g, batch); err != nil {
		return agg, err
	}
	start := time.Now()
	// Net-coalesce first: churn that cancels inside the batch window — an
	// edge flapping down and back up — costs nothing at all, where
	// per-edge application would pay a split rebuild and a merge rebuild.
	if batch = coalesceBatch(x.g, batch); len(batch) == 0 {
		agg.Duration = time.Since(start)
		return agg, nil
	}

	// Classify against the pre-batch table, then move the global graph to
	// its final state up front: every partition question below is asked of
	// the final edge set, once, instead of once per edge.
	planStart := time.Now()
	plan := x.planBatch(batch)
	for _, op := range batch {
		var err error
		if op.Kind == OpInsert {
			err = x.g.AddEdge(int(op.A), int(op.B))
		} else {
			err = x.g.RemoveEdge(int(op.A), int(op.B))
		}
		if err != nil {
			panic(err) // unreachable: ValidateBatch simulated this sequence
		}
	}

	tasks := x.reconcile(plan, &agg)
	agg.PlanDuration = time.Since(planStart)
	buildStart := time.Now()
	x.runBatchTasks(tasks, workers)
	x.installTasks(tasks, &agg)
	agg.BuildDuration = time.Since(buildStart)
	agg.Duration = time.Since(start)
	return agg, nil
}

// installTasks installs fresh shards and folds per-task stats; a stream
// that failed (unreachable short of index corruption) self-heals by
// rebuilding its shard's final components from the global graph.
func (x *Sharded) installTasks(tasks []*batchTask, agg *pll.UpdateStats) {
	for _, t := range tasks {
		if t.err != nil {
			agg.EntriesRemoved += t.sh.idx.EntryCount()
			verts := t.sh.verts
			x.retire(x.shardOf[verts[0]])
			for _, comp := range partition.SCCWithin(x.g, verts) {
				if len(comp) < 2 {
					continue
				}
				sh := buildShard(x.g, comp, x.opts)
				sh.idx.eng.ReleaseScratch()
				x.install(sh)
				x.batchRebuilds++
				agg.EntriesAdded += sh.idx.EntryCount()
			}
			agg.TouchedOwners = append(agg.TouchedOwners, touchAll(verts)...)
			continue
		}
		if t.build != nil {
			x.install(t.sh)
			x.batchRebuilds++
		}
		accumulate(agg, t.st)
	}
}

// batchGlobalSCCInserts bounds the per-edge scoped merge detection: up to
// this many surviving structural inserts are checked individually (an
// early-exit reachability probe each, plus one ComponentOf per actual
// merge); past it, one global Tarjan pass answers every merge and split
// question of the batch at once — cheaper than per-edge reach sets as
// soon as a handful of edges would each walk the graph.
const batchGlobalSCCInserts = 4

// reconcile turns the plan into runnable tasks. Only two kinds of ops can
// move the partition: intra-shard deletions can split their own shard
// (components shrink only by losing an internal edge — mutual-reachability
// paths never leave an SCC), and structural inserts still present in the
// final graph can merge components (a grown component must run a new
// cycle through a surviving new edge; intra-shard inserts change no
// reachability at all). A batch with neither that leaves the pending
// deferral's region alone only streams. Otherwise the final partition
// comes from one global Tarjan pass when a deferral is pending or
// requested (an insertion anywhere can merge an outside component into
// the deferred region, so scoped checks cannot keep a deferral sound) or
// past batchGlobalSCCInserts surviving inserts, and from scoped checks
// around the batch's own ops otherwise.
func (x *Sharded) reconcile(plan batchPlan, agg *pll.UpdateStats) []*batchTask {
	if len(plan.structural) == 0 && len(plan.dirty) == 0 && !plan.touchedPending {
		return x.streamTasks(plan, nil)
	}
	var inserts []EdgeOp
	for _, op := range plan.structural {
		if op.Kind == OpInsert && x.g.HasEdge(int(op.A), int(op.B)) {
			inserts = append(inserts, op)
		}
	}
	if x.pendingReb != nil || x.deferThreshold > 0 || len(inserts) > batchGlobalSCCInserts {
		return x.dispose(plan, x.globalPartition(), agg)
	}
	return x.dispose(plan, x.scopedPartition(plan, inserts), agg)
}

// finalPartition is the post-batch partition of every shard a batch can
// have moved: comps holds final components (members sorted ascending,
// singletons included) covering the members of every shard listed in
// shards, and comp maps a covered vertex to its index in comps.
type finalPartition struct {
	shards []int32
	comps  [][]int32
	comp   func(v int32) int32
}

// spread reports whether verts land in more than one final component.
func (fp finalPartition) spread(verts []int32) bool {
	c := fp.comp(verts[0])
	for _, v := range verts[1:] {
		if fp.comp(v) != c {
			return true
		}
	}
	return false
}

// globalPartition asks the final graph for its whole partition, covering
// every live shard.
func (x *Sharded) globalPartition() finalPartition {
	final := partition.SCC(x.g)
	fp := finalPartition{comps: final.Comps, comp: func(v int32) int32 { return final.Comp[v] }}
	for si, sh := range x.shards {
		if sh != nil {
			fp.shards = append(fp.shards, int32(si))
		}
	}
	return fp
}

// scopedPartition computes the final partition of just the shards the
// batch's own ops can have moved. Merges first: a surviving structural
// insert (a,b) merges components exactly when b reaches a in the final
// graph, and the merged component is then a's final SCC. Distinct merged
// components are disjoint, so an endpoint already absorbed needs no
// second look (an edge between two different final components lies on no
// cycle and contributes nothing). Every shard a merge reaches is
// affected; its members the merge did not absorb (the shard was split by
// a deletion and only part of it merged away) re-partition locally —
// their final components cannot extend beyond the old member set, or a
// surviving structural insert would have seeded them above. Every other
// dirty shard re-checks its own partition locally for the same reason.
func (x *Sharded) scopedPartition(plan batchPlan, inserts []EdgeOp) finalPartition {
	of := make(map[int32]int32)
	fp := finalPartition{comp: func(v int32) int32 { return of[v] }}
	add := func(comps ...[]int32) {
		for _, comp := range comps {
			for _, v := range comp {
				of[v] = int32(len(fp.comps))
			}
			fp.comps = append(fp.comps, comp)
		}
	}
	for _, op := range inserts {
		_, inA := of[op.A]
		_, inB := of[op.B]
		if inA || inB || !partition.Reachable(x.g, int(op.B), int(op.A)) {
			continue
		}
		add(partition.ComponentOf(x.g, int(op.A)))
	}
	merged := fp.comps // add grows fp.comps below; only merges seed leftovers
	affected := make(map[int32]bool)
	for _, comp := range merged {
		for _, v := range comp {
			s := x.shardOf[v]
			if s < 0 || affected[s] {
				continue
			}
			affected[s] = true
			fp.shards = append(fp.shards, s)
			var leftover []int32
			for _, w := range x.shards[s].verts {
				if _, ok := of[w]; !ok {
					leftover = append(leftover, w)
				}
			}
			add(partition.SCCWithin(x.g, leftover)...)
		}
	}
	for _, s := range plan.order {
		if !plan.dirty[s] || affected[s] {
			continue
		}
		fp.shards = append(fp.shards, s)
		add(partition.SCCWithin(x.g, x.shards[s].verts)...)
	}
	return fp
}

// dispose is the planner's one disposition pass over the final
// partition. A shard whose member set is exactly its final component
// survives: a live one streams its ops, and a frozen one unfreezes with
// zero work when its current induced subgraph equals the frozen one (the
// structural churn since its freeze cancelled out, and its dropped ops
// are exactly that cancelled diff). Every other final component of at
// least 2 vertices needs a build. Under a deferral threshold, those of at
// least threshold vertices defer instead; a deferral is contagious within
// a shard — a shard serves either all its members (frozen) or none
// (retired) — so freezing closes over the shard↔component incidence until
// it reaches a fixed point. Frozen shards keep their mapping (their
// answers do not change at this commit, so they add nothing to the dirty
// set); every other affected shard retires now, including a previously
// frozen shard all of whose components build inline — the cheap catch-up
// path. The counters record one merge per built component drawn from
// more than one pre-batch component and one split per retired shard
// whose members land in more than one final component.
func (x *Sharded) dispose(plan batchPlan, fp finalPartition, agg *pll.UpdateStats) []*batchTask {
	keep := make(map[int32]bool)    // shard slot → survives as-is
	covered := make(map[int32]bool) // final comp → served without a build
	for _, s := range fp.shards {
		sh := x.shards[s]
		c := fp.comp(sh.verts[0])
		if sameVerts(fp.comps[c], sh.verts) && (!x.stale[s] || frozenMatches(sh, x.g)) {
			keep[s] = true
			covered[c] = true
		}
	}
	needsBuild := func(c int32) bool { return len(fp.comps[c]) >= 2 && !covered[c] }

	deferred := make(map[int32]bool) // final comp → built out of band
	frozen := make(map[int32]bool)   // shard slot → stays (or becomes) frozen
	var work []int32
	if x.deferThreshold > 0 {
		for ci, comp := range fp.comps {
			if c := int32(ci); needsBuild(c) && len(comp) >= x.deferThreshold {
				deferred[c] = true
				work = append(work, c)
			}
		}
	}
	for len(work) > 0 {
		c := work[len(work)-1]
		work = work[:len(work)-1]
		for _, v := range fp.comps[c] {
			s := x.shardOf[v]
			if s < 0 || frozen[s] {
				continue
			}
			frozen[s] = true
			for _, w := range x.shards[s].verts {
				if c2 := fp.comp(w); needsBuild(c2) && !deferred[c2] {
					deferred[c2] = true
					work = append(work, c2)
				}
			}
		}
	}

	var tasks []*batchTask
	for ci, comp := range fp.comps {
		if c := int32(ci); !needsBuild(c) || deferred[c] {
			continue
		}
		if !x.withinOneShard(comp) {
			x.merges++
		}
		tasks = append(tasks, &batchTask{build: comp})
	}
	for _, s := range fp.shards {
		sh := x.shards[s]
		switch {
		case frozen[s]:
			// supersede freezes it below.
		case keep[s]:
			delete(x.stale, s)
		default:
			agg.EntriesRemoved += sh.idx.EntryCount()
			agg.TouchedOwners = append(agg.TouchedOwners, touchAll(sh.verts)...)
			if fp.spread(sh.verts) {
				x.splits++
			}
			delete(x.stale, s)
			x.retire(s)
		}
	}
	x.supersede(fp, deferred, frozen)
	return x.streamTasks(plan, tasks)
}

// withinOneShard reports whether every vertex of comp sits in the same
// pre-batch shard.
func (x *Sharded) withinOneShard(comp []int32) bool {
	s := x.shardOf[comp[0]]
	for _, v := range comp {
		if x.shardOf[v] != s || s < 0 {
			return false
		}
	}
	return true
}

// streamTasks appends one stream task per planned shard still live and
// not frozen after disposition.
func (x *Sharded) streamTasks(plan batchPlan, tasks []*batchTask) []*batchTask {
	for _, s := range plan.order {
		if sh := x.shards[s]; sh != nil && !x.stale[s] {
			tasks = append(tasks, &batchTask{sh: sh, ops: plan.streams[s]})
		}
	}
	return tasks
}

// supersede replaces the pending deferral with the one the batch's final
// partition calls for, or none. A previous deferral is superseded
// wholesale — its snapshots describe an edge set this batch may have
// changed — but its freeze point is inherited.
func (x *Sharded) supersede(fp finalPartition, deferred, frozen map[int32]bool) {
	prev := x.pendingReb
	if prev != nil {
		x.oobSuperseded++
	}
	x.pendingReb = nil
	if len(deferred) == 0 {
		return
	}
	frozenAt := time.Now()
	if prev != nil && !prev.frozenAt.IsZero() {
		frozenAt = prev.frozenAt
	}
	var comps [][]int32
	for c := range deferred {
		comps = append(comps, fp.comps[c])
	}
	// Largest component first: Run's worker pool drains heaviest-first.
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	var stale []int32
	for s := range frozen {
		stale = append(stale, s)
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	x.newRebuild(comps, stale, frozenAt)
}

// sameVerts reports whether two sorted-ascending vertex lists are equal.
func sameVerts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runBatchTasks drains the tasks on a worker pool, heaviest first so the
// pool's tail stays short. Single-task batches keep intra-build
// parallelism; multi-task batches parallelize across shards with
// sequential inner builds, mirroring BuildSharded.
func (x *Sharded) runBatchTasks(tasks []*batchTask, workers int) {
	inner := x.opts
	if len(tasks) > 1 {
		inner.Workers = 1
	}
	weight := func(t *batchTask) int { return 4*len(t.build) + len(t.ops) }
	sort.SliceStable(tasks, func(i, j int) bool { return weight(tasks[i]) > weight(tasks[j]) })
	forEach(len(tasks), workers, func(i int) { x.runBatchTask(tasks[i], inner) })
}

// runBatchTask executes one task: a fresh component build, or an ordered
// intra-shard update stream through the shard's own INCCNT/decremental
// maintenance. Each task touches only its own shard's sub-index (plus
// read-only global state), so tasks are data-race-free by construction;
// scratches go back to the shared pool so concurrent streams recycle a
// few allocations across the whole batch.
func (x *Sharded) runBatchTask(t *batchTask, inner Options) {
	if t.build != nil {
		t.sh = buildShard(x.g, t.build, inner)
		t.sh.idx.eng.ReleaseScratch()
		t.st.EntriesAdded = t.sh.idx.EntryCount()
		t.st.Visited = len(t.build)
		t.st.TouchedOwners = touchAll(t.build)
		return
	}
	sh := t.sh
	defer sh.idx.eng.ReleaseScratch()
	for _, op := range t.ops {
		la, lb := int(x.localID[op.A]), int(x.localID[op.B])
		var st pll.UpdateStats
		var err error
		if op.Kind == OpInsert {
			st, err = sh.idx.InsertEdge(la, lb)
		} else {
			st, err = sh.idx.DeleteEdge(la, lb)
		}
		if err != nil {
			t.err = err // unreachable short of corruption; caller self-heals
			return
		}
		x.translateOwners(sh, &st)
		accumulate(&t.st, st)
	}
}

// BatchRebuilds reports how many fresh component builds updates have
// installed, inline or out of band — at most one per merged or split
// component per batch.
func (x *Sharded) BatchRebuilds() int { return x.batchRebuilds }
