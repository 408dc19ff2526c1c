package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	cyclehub "repro"
	"repro/internal/bfscount"
)

// indexAnswers asks a cyclehub index, the way the paper-path check does.
func indexAnswers(ix *cyclehub.Index) func(v int) (answer, error) {
	return func(v int) (answer, error) {
		r := ix.CycleCount(v)
		if !r.Exists {
			return answer{Length: bfscount.NoCycle}, nil
		}
		return answer{Length: r.Length, Count: r.Count}, nil
	}
}

func TestCorruptedExpectedAnswerCountsAsFailure(t *testing.T) {
	g := communities(3, 7)
	ix := cyclehub.BuildIndex(g.Clone())
	vs := sampleVertices(g.NumVertices(), 60, 7)
	want := oracleAnswers(g, vs)
	if wrong := countWrong(vs, want, indexAnswers(ix)); wrong != 0 {
		t.Fatalf("index disagrees with the oracle on %d of %d vertices", wrong, len(vs))
	}
	want[5].Count++
	want[9].Length++
	wrong := countWrong(vs, want, indexAnswers(ix))
	if wrong != 2 {
		t.Fatalf("two corrupted expected answers counted as %d failures", wrong)
	}
	o := &observed{reads: []int64{1000}, readWindow: 1, writeWindow: 1, ops: 1}
	o.endRound()
	res := endToEnd(o, 1, 1, 1, len(vs), wrong)
	if res.Correct || res.Failed != 2 || res.Attempted != int64(len(vs))+1 {
		t.Fatalf("result %+v does not count the wrong answers", res)
	}
	if ok := res.Metrics["ok_ratio"].Value; ok >= 1 {
		t.Fatalf("ok_ratio %v with wrong answers", ok)
	}
}

func TestCommunitiesShape(t *testing.T) {
	const k = 6
	g := communities(k, 3)
	if g.NumVertices() != k*blockN || g.NumEdges() != k*blockM+2*k {
		t.Fatalf("n=%d m=%d, want %d %d", g.NumVertices(), g.NumEdges(), k*blockN, k*blockM+2*k)
	}
	for _, e := range g.Edges() {
		if a, b := e[0]/blockN, e[1]/blockN; a > b {
			t.Fatalf("bridge %v points from block %d back to block %d", e, a, b)
		}
	}
	// Same seed, same graph.
	h := communities(k, 3)
	for v := 0; v < g.NumVertices(); v++ {
		if len(g.Out(v)) != len(h.Out(v)) {
			t.Fatalf("vertex %d: out-degree %d vs %d across two builds", v, len(g.Out(v)), len(h.Out(v)))
		}
	}
}

func TestFlapsKeepTheGraph(t *testing.T) {
	g := communities(2, 5)
	m := g.NumEdges()
	f := newFlapper(g, 5)
	for i := 0; i < 100; i++ {
		e, del := f.next()
		if del != (i%2 == 0) {
			t.Fatalf("write %d: delete=%v", i, del)
		}
		if err := mirror(g, e, del); err != nil {
			t.Fatal(err)
		}
	}
	if f.midFlap() || g.NumEdges() != m {
		t.Fatalf("after whole flaps: midFlap=%v edges %d, want %d", f.midFlap(), g.NumEdges(), m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := e2eDef{Name: "read_p50_us", Better: "lower", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{scale(1.0), "within bound"},
		{scale(1.2), "worse"},
		{scale(0.8), "better"},
		{[]float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}, "unresolved"},
	} {
		if got := verdict(base, c.b, lower); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	higher := e2eDef{Name: "read_per_s", Better: "higher", Bound: 0.05}
	if got := verdict(base, scale(0.8), higher); got != "worse" {
		t.Errorf("higher-is-better drop: %s", got)
	}
}

func TestLinkByContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanClient, Node: "client", Target: "router", Method: "GET", Path: "/cycle/7", Start: 0, End: 100, Req: 1},
		{ID: 2, Name: spanServer, Node: "router", Method: "GET", Path: "/cycle/7", Start: 5, End: 95, Req: 1, Parent: 1},
		{ID: 3, Name: spanOut, Node: "router", Target: "g0.primary", Method: "GET", Path: "/cycle/7", Start: 10, End: 90},
		{ID: 4, Name: spanServer, Node: "g0.primary", Method: "GET", Path: "/cycle/7", Start: 20, End: 80},
		// A write on the same primary, shipping to its follower.
		{ID: 5, Name: spanServer, Node: "g0.primary", Method: "DELETE", Path: "/edges?flush=1", Start: 30, End: 200},
		{ID: 6, Name: spanOut, Node: "g0.primary", Target: "g0.follower", Method: "POST", Path: "/repl/append", Start: 40, End: 60},
	}
	link(spans)
	for id, want := range map[int]uint64{3: 2, 4: 3, 6: 5} {
		if got := spans[id-1].Parent; got != want {
			t.Errorf("span %d: parent %d, want %d", id, got, want)
		}
	}
	if spans[3].Req != 1 {
		t.Errorf("worker span request id %d, want 1", spans[3].Req)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// metrics the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var bf struct {
		EndToEnd []e2eDef `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	o := &observed{readWindow: 1, writeWindow: 1}
	o.endRound()
	res := endToEnd(o, 1, 1, 1, 1, 0)
	if len(bf.EndToEnd) != len(res.Metrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(bf.EndToEnd), len(res.Metrics))
	}
	for _, d := range bf.EndToEnd {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("end-to-end %s (%s): reported as %+v", d.Name, d.Unit, m)
		}
	}
	layers := newLayerSet().metrics()
	if len(bf.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(bf.PerLayer), len(layers))
	}
	for _, d := range bf.PerLayer {
		if m, ok := layers[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("per-layer %s (%s): reported as %+v", d.Name, d.Unit, m)
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

func TestPromHistQuantile(t *testing.T) {
	h := &promHist{les: []float64{1, 2, 4, math.Inf(1)}, cum: []float64{0, 10, 20, 20}}
	if q := h.quantile(0.5); q != 2 {
		t.Fatalf("median %v, want 2 (top of the second bucket)", q)
	}
	if q := h.quantile(0.75); q != 3 {
		t.Fatalf("p75 %v, want 3 (interpolated)", q)
	}
}
