package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Compare mode reads two sets of runs, each a file holding the
// concatenated standard output of untraced runs (a provenance line
// followed by a result line per run), and prints per workload and
// end-to-end metric each side's median and quartiles and a verdict by
// the bounds in BENCHMARK.json:
//
//	worse        the new median is worse than the old by more than the bound
//	better       the new median is better by more than the old runs' own
//	             quartile spread and the new run wins at least 9 of 10 pairs
//	within bound neither
//	unresolved   a side's quartile spread exceeds the bound, and the runs
//	             of one side are not all better or all worse than the other's
//
// Runs are paired in file order for the 9-of-10 rule.

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	EndToEnd []e2eDef `json:"end_to_end"`
}

// runSet maps workload → metric → values in file order.
type runSet map[string]map[string][]float64

func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	workload, traced := "", false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Provenance *struct {
				Workload string `json:"workload"`
				Trace    bool   `json:"trace"`
			} `json:"provenance"`
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Provenance != nil:
			workload, traced = line.Provenance.Workload, line.Provenance.Trace
		case line.Metrics != nil && workload != "" && !traced:
			if set[workload] == nil {
				set[workload] = map[string][]float64{}
			}
			for k, m := range line.Metrics {
				set[workload][k] = append(set[workload][k], m.Value)
			}
			workload = ""
		}
	}
	return set, sc.Err()
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method); it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// verdict judges new runs b against old runs a of a metric.
func verdict(a, b []float64, def e2eDef) string {
	worse := func(x, y float64) bool { // x worse than y
		if def.Better == "higher" {
			return x < y
		}
		return x > y
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	change := ratio(mb-ma, ma) // positive: new is larger
	if def.Better == "higher" {
		change = -change
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if !worse(x, y) {
				allBetter = false
			}
			if !worse(y, x) {
				allWorse = false
			}
		}
	}
	if sa, sb := spread(a), spread(b); sa > def.Bound || sb > def.Bound {
		switch {
		case allBetter:
			return "better"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	if change > def.Bound {
		return "worse"
	}
	won, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if worse(a[i], b[i]) {
			won++
		}
	}
	if -change > spread(a) && pairs > 0 && float64(won) >= 0.9*float64(pairs) {
		return "better"
	}
	return "within bound"
}

func runCompare(w io.Writer, benchPath, oldPath, newPath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	olds, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	news, err := readRuns(newPath)
	if err != nil {
		return err
	}
	var names []string
	for wl := range olds {
		if news[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced runs in both files")
	}
	fmt.Fprintf(w, "%-13s %-21s %5s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "runs", "old median [q1, q3]", "new median [q1, q3]", "change", "bound", "verdict")
	for _, wl := range names {
		for _, def := range bf.EndToEnd {
			a, b := olds[wl][def.Name], news[wl][def.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			fmt.Fprintf(w, "%-13s %-21s %2d/%-2d %-34s %-34s %+7.2f%% %5.1f%%  %s\n", wl, def.Name, len(a), len(b),
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", a2, a1, a3, def.Unit),
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", b2, b1, b3, def.Unit),
				100*ratio(b2-a2, a2), 100*def.Bound, verdict(a, b, def))
		}
	}
	return nil
}
