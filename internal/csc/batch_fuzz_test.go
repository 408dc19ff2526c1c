package csc

import (
	"testing"

	"repro/internal/bfscount"
	"repro/internal/graph"
)

// FuzzBatchUpdate drives interleaved insert/delete batches across
// merge/split boundaries. The input is a sequence of records, each
// starting with a header byte:
//
//   - h < 0x40: a batch of h%13 op bytes applied through ApplyBatch;
//   - 0x40 ≤ h < 0x80: (h&0x3f)%13 op bytes applied one at a time through
//     InsertEdge/DeleteEdge;
//   - 0x80 ≤ h < 0xc0: SetDeferThreshold(h&0x0f) — 0 is the inline path;
//   - h ≥ 0xc0: run and complete the pending rebuild, if any.
//
// Each op byte is one endpoint pair, and every op toggles its edge
// against a mirror graph, so any byte string decodes into a valid update
// sequence. After every record the sharded index must agree with the BFS
// oracle on every vertex outside the pending deferral's region (inside
// it, frozen shards serve their pre-freeze answers by contract), across a
// rotating worker count, and the shard table must stay consistent. Once
// the input is exhausted the last deferral is drained and every vertex
// must agree.
//
// testdata/fuzz/FuzzBatchUpdate checks in the known-nasty seeds, all on
// the inline path: an insert closing a path back to its tail
// (cross-batch and within-batch merges) and a delete splitting a giant
// SCC.
func FuzzBatchUpdate(f *testing.F) {
	// A 4-ring built in one batch: a within-batch merge.
	f.Add([]byte{4, 0x01, 0x12, 0x23, 0x30})
	// A path grown in one batch, closed back to its tail in the next.
	f.Add([]byte{3, 0x01, 0x12, 0x23, 1, 0x30})
	// A giant 8-ring, then a single delete that splits it.
	f.Add([]byte{8, 0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x70, 1, 0x01})
	f.Add([]byte{})
	// The 8-ring under threshold 4 defers its merge; per-op calls break
	// and re-close it while the deferral is pending, then it drains.
	f.Add([]byte{0x84, 8, 0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x70,
		0x41, 0x34, 0x41, 0x34, 0xc0})
	// Two bridged triangles; under threshold 3, deleting a bridge defers
	// the split. The threshold then drops to inline while it is pending,
	// and the next batch into the frozen shard completes it inline.
	f.Add([]byte{8, 0x01, 0x12, 0x20, 0x34, 0x45, 0x53, 0x23, 0x50,
		0x83, 1, 0x23, 0x80, 2, 0x01, 0x35, 0xc0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 12
		if len(data) > 96 {
			data = data[:96]
		}
		x, _ := BuildSharded(graph.New(n), Options{})
		mirror := graph.New(n)
		check := func(bi int) {
			t.Helper()
			if err := x.checkConsistent(); err != nil {
				t.Fatalf("record %d: %v", bi, err)
			}
			var region map[int32]struct{}
			if x.pendingReb != nil {
				region = x.pendingReb.region
			}
			for v := 0; v < n; v++ {
				if _, stale := region[int32(v)]; stale {
					continue
				}
				sl, sc := x.CycleCount(v)
				ol, oc := bfscount.CycleCount(mirror, v)
				if sl != ol || sc != oc {
					t.Fatalf("record %d vertex %d: sharded (%d,%d) != oracle (%d,%d)", bi, v, sl, sc, ol, oc)
				}
			}
		}
		drain := func(bi, workers int) {
			t.Helper()
			if r := x.PendingRebuild(); r != nil {
				r.Run(workers)
				if _, ok := x.CompleteRebuild(r); !ok {
					t.Fatalf("record %d: CompleteRebuild rejected the pending rebuild", bi)
				}
			}
		}
		bi := 0
		for i := 0; i < len(data); bi++ {
			h := data[i]
			i++
			workers := []int{1, 2, 4}[bi%3]
			switch {
			case h >= 0xc0:
				drain(bi, workers)
				check(bi)
				continue
			case h >= 0x80:
				x.SetDeferThreshold(int(h & 0x0f))
				continue
			}
			perOp := h >= 0x40
			batchLen := int(h&0x3f) % 13
			var batch []EdgeOp
			for k := 0; k < batchLen && i < len(data); k++ {
				b := data[i]
				i++
				u, v := int(b>>4)%n, int(b&0xf)%n
				if u == v {
					continue
				}
				if mirror.HasEdge(u, v) {
					_ = mirror.RemoveEdge(u, v)
					batch = append(batch, Del(u, v))
				} else {
					_ = mirror.AddEdge(u, v)
					batch = append(batch, Ins(u, v))
				}
			}
			if !perOp {
				if _, err := x.ApplyBatch(batch, workers); err != nil {
					t.Fatalf("batch %d (workers %d): %v", bi, workers, err)
				}
				check(bi)
				continue
			}
			for _, op := range batch {
				var err error
				if op.Kind == OpInsert {
					_, err = x.InsertEdge(int(op.A), int(op.B))
				} else {
					_, err = x.DeleteEdge(int(op.A), int(op.B))
				}
				if err != nil {
					t.Fatalf("record %d op %+v: %v", bi, op, err)
				}
			}
			check(bi)
		}
		drain(bi, 2)
		if len(x.StaleShards()) != 0 {
			t.Fatalf("stale shards %v after draining", x.StaleShards())
		}
		check(bi)
		if !graph.Equal(x.Graph(), mirror) {
			t.Fatal("index graph diverged from mirror")
		}
	})
}
