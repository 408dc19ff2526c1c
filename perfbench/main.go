// Command perfbench is the repository's end-to-end benchmark: three
// workloads over the CSC system (the cyclehub library, the serving
// engine behind its HTTP handler, and a routed replicated cluster), each
// built from a seed, measured for a fixed time, and checked against the
// BFS oracle. See WORKLOADS.md for what each workload runs and why.
//
//	bash perfbench/run.sh --workload paper-path --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --compare old.txt new.txt
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end metrics; with --trace 1 the per-layer
// metrics of a traced replay, preceded by a readable report.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root
	out      string // build and scratch directory, under root
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupReps = 5

func main() {
	var cfg config
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the inputs are a pure function of it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced replay reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch files and span dumps")
	flag.BoolVar(&compare, "compare", false, "compare two files of run outputs given as arguments")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	cfg.trace = trace == 1

	if compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two files: old and new run outputs")
		}
		if err := runCompare(os.Stdout, filepath.Join(cfg.root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(filepath.Join(cfg.out, "tmp"), 0o755); err != nil {
		fatalf("%v", err)
	}
	printJSON(map[string]any{"provenance": provenance(cfg)})

	d := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		res, err := runTraced(cfg, w, d)
		if err != nil {
			fatalf("%s: %v", cfg.workload, err)
		}
		printJSON(res)
		return
	}
	p, err := measure(cfg, w, nil, setupReps, d, nil)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	printJSON(p.res)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode: %v", err)
	}
	fmt.Println(string(b))
}

// provenance records what produced a result.
func provenance(cfg config) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"source":     sourceHash(cfg.root),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"commit":     commit,
		"dirty":      modified,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceHash identifies the program's sources where no commit is
// recorded (a checkout that is not a git repository): a SHA-256 over the
// path and contents of every .go, go.mod and go.sum file under root.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// heapMB is the live Go heap after a forced collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// pass is one measured run of a workload.
type pass struct {
	res *result
	o   *observed
	st  setupTimes // the measured set-up's steps
	gc  goStats    // GC work during the measured window
}

// measure sets w up reps times (setup_s is the median) and measures the
// last set-up for d: it runs the clients, checks the answers against the
// oracle, hands the system to layers if set, and closes it.
func measure(cfg config, w workload, tr *tracer, reps int, d time.Duration, layers func(system)) (*pass, error) {
	var setups []float64
	var sys system
	p := &pass{}
	for i := 0; i < reps; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		s, st, err := w(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sys, p.st = s, st
	}
	// heapMB collects the set-up's garbage, so no collection it left
	// behind runs inside the measured window.
	heap, lbpe := heapMB(), sys.labelBytesPerEdge()
	g0 := readGoStats()
	o, err := sys.run(d)
	if err != nil {
		sys.close()
		return nil, err
	}
	g1 := readGoStats()
	p.gc = goStats{cycles: g1.cycles - g0.cycles, pauseNS: g1.pauseNS - g0.pauseNS}
	checked, wrong := sys.check()
	if layers != nil {
		layers(sys)
	}
	if err := sys.close(); err != nil {
		return nil, err
	}
	p.o, p.res = o, endToEnd(o, median(setups), heap, lbpe, checked, wrong)
	return p, nil
}

// endToEnd turns one measured run into the result line.
func endToEnd(o *observed, setupS, heap, lbpe float64, checked, wrong int) *result {
	attempted := o.ops + int64(checked)
	failed := o.failed + int64(wrong)
	m := map[string]metric{
		"setup_s":              {setupS, "s"},
		"ok_ratio":             {1 - ratio(float64(failed), float64(attempted)), "ratio"},
		"heap_mb":              {heap, "MB"},
		"label_bytes_per_edge": {lbpe, "B/edge"},
	}
	for _, name := range endToEndNames {
		if _, ok := m[name]; !ok {
			m[name] = metric{o.roundMedian(name), e2eUnits[name]}
		}
	}
	return &result{Correct: checked > 0 && wrong == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
