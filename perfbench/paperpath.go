package main

import (
	"fmt"
	"math/rand"
	"time"

	cyclehub "repro"
	"repro/internal/bfscount"
	"repro/internal/graph"
)

// paper-path: the cyclehub.Index library API alone, over communities
// with K=100, one caller in a closed loop: a query phase of uniform
// CycleCount calls, then a flap phase of DeleteEdge/InsertEdge.
const (
	// paperK keeps the labels (~23 MB) inside L3: labels that spill to
	// DRAM make every read a random DRAM access, and on a shared host
	// those run at whatever bandwidth the neighbours leave.
	paperK = 100
	// paperQuerySpanEvery keeps a span for every that-many-th query of a
	// traced run: a span costs far more memory than the 2 µs call it
	// times, and millions of them would not fit next to the labels.
	paperQuerySpanEvery = 16
	// paperRounds: the run alternates query and flap phases this many
	// times; each round yields one value of every latency and rate metric.
	paperRounds = 10
	// checkSample is how many seeded vertices a quiesce check asks.
	checkSample = 200
	// paperWarmQueries and paperWarmFlaps are the untimed warm-up that
	// ends a set-up: the labels into cache, the update paths run once.
	paperWarmQueries = 200000
	paperWarmFlaps   = 20
)

type paperPath struct {
	cfg   config
	tr    *tracer
	ix    *cyclehub.Index
	g     *graph.Digraph // the oracle's copy, kept in step with every write
	flaps *flapper
	rng   *rand.Rand
}

func setupPaperPath(cfg config, tr *tracer) (system, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	g := communities(paperK, cfg.seed)
	p := &paperPath{cfg: cfg, tr: tr, g: g.Clone(), flaps: newFlapper(g, cfg.seed),
		rng: rand.New(rand.NewSource(cfg.seed ^ 0x9e3779b9))}
	st.graph = time.Since(t0).Seconds()
	t1 := time.Now()
	tr.call("csc.build", func() { p.ix = cyclehub.BuildIndex(g) })
	st.build = time.Since(t1).Seconds()

	t2 := time.Now()
	for i := 0; i < paperWarmQueries; i++ {
		p.ix.CycleCount(p.rng.Intn(g.NumVertices()))
	}
	for i := 0; i < 2*paperWarmFlaps; i++ {
		e, del := p.flaps.next()
		apply := p.ix.InsertEdge
		if del {
			apply = p.ix.DeleteEdge
		}
		if err := apply(e[0], e[1]); err != nil {
			return nil, st, fmt.Errorf("warm-up write %v: %w", e, err)
		}
		if err := mirror(p.g, e, del); err != nil {
			return nil, st, err
		}
	}
	st.warm = time.Since(t2).Seconds()
	return p, st, nil
}

func (p *paperPath) run(d time.Duration) (*observed, error) {
	o := &observed{}
	half := d / (2 * paperRounds)
	for r := 0; r < paperRounds; r++ {
		p.queries(o, half)
		if err := p.flap(o, half); err != nil {
			return nil, err
		}
		o.endRound()
	}
	return o, nil
}

// queries is one round's query phase: uniform CycleCount calls for d.
func (p *paperPath) queries(o *observed, d time.Duration) {
	n := p.g.NumVertices()
	start := time.Now()
	end := start.Add(d)
	for i := 0; ; i++ {
		v := p.rng.Intn(n)
		t := time.Now()
		if t.After(end) {
			o.readWindow = t.Sub(start)
			break
		}
		if p.tr != nil && i%paperQuerySpanEvery == 0 {
			p.tr.call("csc.query", func() { p.ix.CycleCount(v) })
		} else {
			p.ix.CycleCount(v)
		}
		o.reads = append(o.reads, int64(time.Since(t)))
		o.ops++
	}
}

// flap is one round's write phase: whole flaps for d.
func (p *paperPath) flap(o *observed, d time.Duration) error {
	start := time.Now()
	end := start.Add(d)
	for {
		e, del := p.flaps.next()
		var err error
		name, apply, lat := "csc.insert", p.ix.InsertEdge, &o.inserts
		if del {
			name, apply, lat = "csc.delete", p.ix.DeleteEdge, &o.deletes
		}
		t := time.Now()
		p.tr.call(name, func() { err = apply(e[0], e[1]) })
		*lat = append(*lat, int64(time.Since(t)))
		o.ops++
		if err != nil {
			o.failed++
		} else if err := mirror(p.g, e, del); err != nil {
			return err
		}
		if !p.flaps.midFlap() && time.Now().After(end) {
			break
		}
	}
	o.writeWindow = time.Since(start)
	return nil
}

// mirror applies an acknowledged write to the oracle's graph copy.
func mirror(g *graph.Digraph, e [2]int, del bool) error {
	var err error
	if del {
		err = g.RemoveEdge(e[0], e[1])
	} else {
		err = g.AddEdge(e[0], e[1])
	}
	if err != nil {
		return fmt.Errorf("oracle graph out of step at %v (delete=%v): %w", e, del, err)
	}
	return nil
}

func (p *paperPath) check() (int, int) {
	vs := sampleVertices(p.g.NumVertices(), checkSample, p.cfg.seed)
	want := oracleAnswers(p.g, vs)
	return len(vs), countWrong(vs, want, func(v int) (answer, error) {
		r := p.ix.CycleCount(v)
		if !r.Exists {
			return answer{Length: bfscount.NoCycle}, nil
		}
		return answer{Length: r.Length, Count: r.Count}, nil
	})
}

func (p *paperPath) labelBytesPerEdge() float64 {
	return float64(p.ix.Stats().Bytes) / float64(p.ix.Graph().NumEdges())
}

func (p *paperPath) layers(l *layerSet, spans []span) {
	l.callSpans(spans)
	l.set("pll.label_entries", float64(p.ix.Stats().Entries), 1, "Index.Stats().Entries after setup")
}

func (p *paperPath) close() error { return nil }
