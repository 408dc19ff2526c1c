package csc

import (
	"io"

	"repro/internal/graph"
	"repro/internal/pll"
)

// Counter is the query-and-maintenance surface shared by the monolithic
// Index and the SCC-sharded Sharded index. The serving engine, the top-k
// monitor and the cyclehub facade program against it, so either form
// serves transparently — including through WAL/snapshot recovery, whose
// snapshots dispatch on the serialization magic (Read).
//
// Implementations are not safe for concurrent mutation; queries may run
// concurrently with each other but not with updates (the serving engine
// provides that synchronization).
type Counter interface {
	// CycleCount answers SCCnt(v): shortest cycle length through v
	// (bfscount.NoCycle when none) and the number of such cycles.
	CycleCount(v int) (length int, count uint64)
	// CycleCountBounded is CycleCount restricted to cycle lengths ≤
	// maxLen, answered through the bounded join kernel: it reports
	// (bfscount.NoCycle, 0) when the shortest cycles are longer, without
	// paying count arithmetic for over-bound hub pairs.
	CycleCountBounded(v, maxLen int) (length int, count uint64)
	// CycleCountAll evaluates SCCnt for every vertex with the given
	// parallelism (0 = all cores, clamped to the vertex count).
	CycleCountAll(workers int) (lengths []int, counts []uint64)

	// InsertEdge and DeleteEdge apply a maintained edge update. The
	// returned stats' TouchedOwners are Gb vertices of the *original*
	// graph's conversion (bipartite.Original maps them back), whichever
	// implementation produced them. TouchedOwners is the exact dirty
	// surface of every update path — INCCNT, decremental repair, scoped
	// and batch rebuilds: SCCnt answers are a pure function of the
	// labels, so any vertex whose answer an update changed appears in
	// it (DirtyVertices maps the owners to original-graph vertices).
	// Read-path caches and the top-k monitor invalidate exactly that
	// set.
	InsertEdge(a, b int) (pll.UpdateStats, error)
	DeleteEdge(a, b int) (pll.UpdateStats, error)

	// ApplyBatch applies an ordered sequence of edge operations as one
	// maintenance unit, answering every query afterwards exactly as if
	// they had gone through InsertEdge/DeleteEdge one at a time. The
	// batch is first reduced to its net effect against the live graph
	// (an insert+delete pair of the same edge cancels), so only the
	// net ops are maintained and reflected in the stats. The batch must
	// be a valid sequence against the live graph (no duplicate inserts,
	// no missing deletes, net of earlier ops in the same batch); an
	// invalid batch is rejected up front with nothing applied. On the
	// sharded index it is the only mutation path — its InsertEdge and
	// DeleteEdge are one-op batches — planning the batch per shard and
	// applying independent shard streams on workers goroutines (0 = all
	// cores, 1 = sequential); the monolithic index applies sequentially
	// through its own InsertEdge/DeleteEdge regardless. Stats are
	// aggregated over the batch with TouchedOwners in the same Gb
	// convention as InsertEdge.
	ApplyBatch(batch []EdgeOp, workers int) (pll.UpdateStats, error)

	// AddVertex appends one isolated vertex; DetachVertex removes every
	// incident edge of v through maintained deletions.
	AddVertex() (int, error)
	DetachVertex(v int) (int, error)

	// Graph returns the indexed original graph. Callers must not mutate
	// it directly.
	Graph() *graph.Digraph

	// EntryCount, Bytes and ReducedBytes describe the label footprint.
	EntryCount() int
	Bytes() int
	ReducedBytes() int

	// WriteTo serializes the index in a format Read can load.
	WriteTo(w io.Writer) (int64, error)
}

var (
	_ Counter = (*Index)(nil)
	_ Counter = (*Sharded)(nil)
)
