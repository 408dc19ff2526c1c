package main

import (
	"bufio"
	"bytes"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile of xs by nearest rank (0 when empty).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// durs converts nanosecond samples to floats in the given unit.
func durs(ns []int64, unit time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrape is one parsed Prometheus text exposition of a registry: plain
// series by their full name (labels included), histogram series by name
// without the le label.
type scrape struct {
	vals  map[string]float64
	hists map[string]*promHist
}

// promHist is one exposition histogram: cumulative counts per inclusive
// upper bound in seconds, ascending, the last bound +Inf.
type promHist struct {
	les []float64
	cum []float64
}

func scrapeRegistry(reg *obs.Registry) scrape {
	s := scrape{vals: map[string]float64{}, hists: map[string]*promHist{}}
	if reg == nil {
		return s
	}
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		key, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			continue
		}
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], key[i+1:len(key)-1]
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, rest := splitLE(labels)
			h := s.hist(seriesKey(strings.TrimSuffix(name, "_bucket"), rest))
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, _ = strconv.ParseFloat(le, 64)
			}
			h.les = append(h.les, bound)
			h.cum = append(h.cum, v)
		default:
			s.vals[key] = v
		}
	}
	return s
}

func (s scrape) hist(key string) *promHist {
	h, ok := s.hists[key]
	if !ok {
		h = &promHist{}
		s.hists[key] = h
	}
	return h
}

func seriesKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// splitLE separates the le label from the other labels of a bucket line.
func splitLE(labels string) (le, rest string) {
	var keep []string
	for _, kv := range strings.Split(labels, ",") {
		if v, ok := strings.CutPrefix(kv, "le="); ok {
			le = strings.Trim(v, `"`)
			continue
		}
		keep = append(keep, kv)
	}
	return le, strings.Join(keep, ",")
}

// sumScrapes adds several scrapes of registries with the same families
// (the engines of one workload) into one.
func sumScrapes(ss ...scrape) scrape {
	out := scrape{vals: map[string]float64{}, hists: map[string]*promHist{}}
	for _, s := range ss {
		for k, v := range s.vals {
			out.vals[k] += v
		}
		for k, h := range s.hists {
			o := out.hist(k)
			if o.les == nil {
				o.les = append([]float64(nil), h.les...)
				o.cum = make([]float64, len(h.cum))
			}
			for i := range h.cum {
				o.cum[i] += h.cum[i]
			}
		}
	}
	return out
}

// diff returns s minus an earlier scrape base of the same registries:
// counters and histograms become increments over the window, gauges keep
// s's value.
func (s scrape) diff(base scrape) scrape {
	out := scrape{vals: map[string]float64{}, hists: map[string]*promHist{}}
	for k, v := range s.vals {
		out.vals[k] = v
		if strings.HasSuffix(strings.SplitN(k, "{", 2)[0], "_total") {
			out.vals[k] = v - base.vals[k]
		}
	}
	for k, h := range s.hists {
		o := &promHist{les: h.les, cum: append([]float64(nil), h.cum...)}
		if b, ok := base.hists[k]; ok && len(b.cum) == len(h.cum) {
			for i := range o.cum {
				o.cum[i] -= b.cum[i]
			}
		}
		out.hists[k] = o
	}
	return out
}

// count is the number of observations in the histogram.
func (h *promHist) count() float64 {
	if h == nil || len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

// quantile estimates the q-quantile in seconds by linear interpolation
// inside the exposition's octave buckets, as Prometheus's
// histogram_quantile does: exact to within one octave.
func (h *promHist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * n
	lo, prev := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank && c > prev {
			hi := h.les[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-prev)/(c-prev)
		}
		lo, prev = h.les[i], c
	}
	return lo
}

// goStats reads the runtime's GC counters from runtime/metrics.
type goStats struct {
	cycles  uint64
	pauseNS float64
}

func readGoStats() goStats {
	ss := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(ss)
	var g goStats
	if ss[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := ss[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			g.pauseNS += float64(c) * (lo + hi) / 2 * 1e9
		}
	}
	return g
}
