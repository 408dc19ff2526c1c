package csc

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/pll"
)

// Differential property test: the generic hub-filtered construction, the
// sequential couple-vertex-skipping construction, and the parallel
// skipping construction must produce identical labels on the same graph,
// and must keep answering CycleCount identically (and correctly, against
// the BFS baseline) under a random stream of maintained insertions and
// deletions. A fourth index runs the same stream with the generic update
// passes (CoupleSkip off): after every step its labels must be
// byte-identical to the couple-skipping passes', with equal update
// statistics. This pins the whole fast-path pipeline — hub-indexed
// pruning, rank-batched speculation, the CSR arena and couple-vertex
// skipping in the update passes — to the seed semantics, under both
// maintenance strategies.
func TestDifferentialConstructionAndUpdateStream(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		differentialRun(t, seed)
	}
}

// FuzzDifferentialConstruction lets `go test -fuzz` explore more seeds;
// the checked-in corpus keeps `go test` fast.
func FuzzDifferentialConstruction(f *testing.F) {
	f.Add(int64(42))
	f.Add(int64(7))
	f.Fuzz(func(t *testing.T, seed int64) {
		differentialRun(t, seed)
	})
}

func differentialRun(t *testing.T, seed int64) {
	t.Helper()
	for _, strat := range []pll.Strategy{pll.Redundancy, pll.Minimality} {
		differentialStream(t, seed, strat)
	}
}

func differentialStream(t *testing.T, seed int64, strat pll.Strategy) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n := 10 + r.Intn(25)
	m := n + r.Intn(3*n)
	g := gen.ErdosRenyi(gen.Config{N: n, M: m, Seed: seed})
	ord := order.ByDegree(g)

	generic, _ := Build(g.Clone(), ord, Options{Strategy: strat, GenericConstruction: true, Workers: 1})
	skipping, _ := Build(g.Clone(), ord, Options{Strategy: strat, Workers: 1})
	parallel, _ := Build(g.Clone(), ord, Options{Strategy: strat, Workers: 4})
	reference, _ := Build(g.Clone(), ord, Options{Strategy: strat, Workers: 1})
	reference.eng.CoupleSkip = false

	assertEngineLabelsEqual(t, seed, -1, "generic vs skipping", generic, skipping)
	assertEngineLabelsEqual(t, seed, -1, "skipping vs parallel", skipping, parallel)

	// Random update stream applied to all four; answers must agree with
	// each other and with the BFS ground truth after every step.
	indexes := []*Index{generic, skipping, parallel, reference}
	for step := 0; step < 30; step++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		op := "insert"
		if g.HasEdge(u, v) {
			op = "delete"
			g.RemoveEdge(u, v)
		} else {
			g.AddEdge(u, v)
		}
		stats := make([]pll.UpdateStats, len(indexes))
		for i, x := range indexes {
			var err error
			if op == "delete" {
				stats[i], err = x.DeleteEdge(u, v)
			} else {
				stats[i], err = x.InsertEdge(u, v)
			}
			if err != nil {
				t.Fatalf("seed %d %v step %d: %s(%d,%d): %v", seed, strat, step, op, u, v, err)
			}
		}
		assertEngineLabelsEqual(t, seed, step, "generic vs parallel", generic, parallel)
		assertEngineLabelsEqual(t, seed, step, "couple-skipping vs generic passes", skipping, reference)
		assertUpdateStatsEqual(t, fmt.Sprintf("seed %d %v step %d %s(%d,%d)", seed, strat, step, op, u, v),
			stats[1], stats[3])
		for w := 0; w < n; w++ {
			wantL, wantC := bfscount.CycleCount(g, w)
			for _, x := range indexes {
				gotL, gotC := x.CycleCount(w)
				if gotL != wantL || gotC != wantC {
					t.Fatalf("seed %d %v step %d: CycleCount(%d) = (%d,%d), want BFS (%d,%d)",
						seed, strat, step, w, gotL, gotC, wantL, wantC)
				}
			}
		}
	}
}

// assertUpdateStatsEqual checks that couple-skipping passes report the
// generic passes' statistics: equal counters, and the same touched owners
// as a set.
func assertUpdateStatsEqual(t *testing.T, what string, got, want pll.UpdateStats) {
	t.Helper()
	type counters struct{ hubs, visited, added, changed, removed int }
	c := func(st pll.UpdateStats) counters {
		return counters{st.AffectedHubs, st.Visited, st.EntriesAdded, st.EntriesChanged, st.EntriesRemoved}
	}
	if c(got) != c(want) {
		t.Fatalf("%s: stats {hubs visited added changed removed} = %+v, generic passes %+v", what, c(got), c(want))
	}
	set := func(st pll.UpdateStats) map[int32]bool {
		m := make(map[int32]bool, len(st.TouchedOwners))
		for _, o := range st.TouchedOwners {
			m[o] = true
		}
		return m
	}
	if g, w := set(got), set(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: touched owners %v, generic passes %v", what, g, w)
	}
}

func assertEngineLabelsEqual(t *testing.T, seed int64, step int, what string, a, b *Index) {
	t.Helper()
	ae, be := a.Engine(), b.Engine()
	n2 := ae.G.NumVertices()
	for v := 0; v < n2; v++ {
		if !entriesEqual(ae.In[v].Entries(), be.In[v].Entries()) {
			t.Fatalf("seed %d step %d: %s: Lin(%d): %v != %v",
				seed, step, what, v, ae.In[v].Entries(), be.In[v].Entries())
		}
		if !entriesEqual(ae.Out[v].Entries(), be.Out[v].Entries()) {
			t.Fatalf("seed %d step %d: %s: Lout(%d): %v != %v",
				seed, step, what, v, ae.Out[v].Entries(), be.Out[v].Entries())
		}
	}
	if ae.EntryCount() != be.EntryCount() {
		t.Fatalf("seed %d step %d: %s: entry counts %d != %d",
			seed, step, what, ae.EntryCount(), be.EntryCount())
	}
}

// TestGoldenLoadsSkipCouples boots every checked-in on-disk format and
// drives each loaded labeling through a delete/insert stream twice: once
// as loaded, once with the generic update passes. A loaded engine must
// run couple-vertex skipping (hub filters and pass modes do not
// serialize, so a loader that forgot to re-install them would silently
// fall back to the slow path), and its labels and statistics must match
// the generic passes' after every step.
func TestGoldenLoadsSkipCouples(t *testing.T) {
	for _, file := range []string{"golden_v1.csc", "golden_v2.csc", "golden_v3.csc", "golden_v4.csc"} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		generic, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		xs, refs := labelings(loaded), labelings(generic)
		if len(xs) == 0 || len(xs) != len(refs) {
			t.Fatalf("%s: %d labelings, reference %d", file, len(xs), len(refs))
		}
		for i, x := range xs {
			if !x.eng.CoupleSkip || x.eng.HubFilter == nil {
				t.Fatalf("%s: labeling %d loaded without couple skipping", file, i)
			}
			ref := refs[i]
			ref.eng.CoupleSkip = false
			n := x.g.NumVertices()
			r := rand.New(rand.NewSource(int64(i)))
			for step := 0; step < 40; step++ {
				u, v := r.Intn(n), r.Intn(n)
				if u == v {
					continue
				}
				what := fmt.Sprintf("%s labeling %d step %d", file, i, step)
				var got, want pll.UpdateStats
				if x.g.HasEdge(u, v) {
					got, err = x.DeleteEdge(u, v)
					if err == nil {
						want, err = ref.DeleteEdge(u, v)
					}
				} else {
					got, err = x.InsertEdge(u, v)
					if err == nil {
						want, err = ref.InsertEdge(u, v)
					}
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				assertEngineLabelsEqual(t, int64(i), step, file, x, ref)
				assertUpdateStatsEqual(t, what, got, want)
				for w := 0; w < n; w++ {
					wantL, wantC := bfscount.CycleCount(x.g, w)
					if l, c := x.CycleCount(w); l != wantL || c != wantC {
						t.Fatalf("%s: CycleCount(%d) = (%d,%d), want BFS (%d,%d)", what, w, l, c, wantL, wantC)
					}
				}
			}
		}
	}
}

// labelings returns the monolithic labelings behind a loaded index: the
// index itself, or each live shard's.
func labelings(c Counter) []*Index {
	switch x := c.(type) {
	case *Index:
		return []*Index{x}
	case *Sharded:
		var out []*Index
		for _, sh := range x.liveShards() {
			out = append(out, sh.idx)
		}
		return out
	}
	return nil
}
