package main

import (
	"math/rand"

	"repro/internal/bfscount"
	"repro/internal/graph"
	"repro/internal/testgraphs"
)

// Block shape of the communities family: each block is one
// testgraphs.GiantSCC, a Hamiltonian ring plus random chords.
const (
	blockN = 200
	blockM = 800
)

// communities builds k blocks, block b a GiantSCC(blockN, blockM,
// seed·1000003+b) on vertices [b·blockN, (b+1)·blockN), joined by 2k
// random bridges that always point from a lower-numbered block to a
// higher-numbered one. Every block stays its own bounded SCC and the
// bridges form a DAG, so one update never touches more than one
// 200-vertex component. k must be at least 2.
func communities(k int, seed int64) *graph.Digraph {
	g := graph.New(k * blockN)
	for b := 0; b < k; b++ {
		blk := testgraphs.GiantSCC(blockN, blockM, seed*1000003+int64(b))
		off := b * blockN
		for u := 0; u < blockN; u++ {
			for _, v := range blk.Out(u) {
				_ = g.AddEdge(off+u, off+int(v)) // distinct by construction
			}
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eedb1d9e))
	for added := 0; added < 2*k; {
		a, b := r.Intn(k), r.Intn(k)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if g.AddEdge(a*blockN+r.Intn(blockN), b*blockN+r.Intn(blockN)) == nil {
			added++
		}
	}
	return g
}

// flapper yields the write stream: every write is a flap, the delete of
// a seeded existing edge followed by its re-insert as the next write, so
// the edge set (and with it the label size) is stationary however long
// a run lasts.
type flapper struct {
	r     *rand.Rand
	edges [][2]int
	cur   [2]int
	half  bool // the next write is the re-insert of cur
}

func newFlapper(g *graph.Digraph, seed int64) *flapper {
	return &flapper{r: rand.New(rand.NewSource(seed ^ 0xf1a9)), edges: g.Edges()}
}

// next returns the next write: the edge and whether it is a delete.
func (f *flapper) next() (e [2]int, del bool) {
	if f.half {
		f.half = false
		return f.cur, false
	}
	f.cur = f.edges[f.r.Intn(len(f.edges))]
	f.half = true
	return f.cur, true
}

// midFlap reports whether the last write was a delete whose re-insert is
// still due.
func (f *flapper) midFlap() bool { return f.half }

// answer is one SCCnt result: Length is bfscount.NoCycle when the vertex
// lies on no cycle.
type answer struct {
	Length int
	Count  uint64
}

func oracle(g *graph.Digraph, v int) answer {
	l, c := bfscount.CycleCount(g, v)
	return answer{l, c}
}

// oracleAnswers runs the BFS oracle for every vertex of vs on g.
func oracleAnswers(g *graph.Digraph, vs []int) []answer {
	out := make([]answer, len(vs))
	for i, v := range vs {
		out[i] = oracle(g, v)
	}
	return out
}

// countWrong asks got for each vertex of vs and counts the answers that
// fail (an error) or disagree with want.
func countWrong(vs []int, want []answer, got func(v int) (answer, error)) int {
	wrong := 0
	for i, v := range vs {
		a, err := got(v)
		if err != nil || a != want[i] {
			wrong++
		}
	}
	return wrong
}

// sampleVertices draws k distinct vertices of [0,n) from seed.
func sampleVertices(n, k int, seed int64) []int {
	r := rand.New(rand.NewSource(seed ^ 0xc4ec))
	if k > n {
		k = n
	}
	return r.Perm(n)[:k]
}
