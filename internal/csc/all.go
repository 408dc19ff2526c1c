package csc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// CycleCountAll evaluates SCCnt(v) for every vertex and returns the
// per-vertex lengths (bfscount.NoCycle for cycle-free vertices) and
// counts. workers sets the parallelism: 0 uses every core, and any value
// is clamped to the vertex count so tiny graphs never spawn idle
// goroutines. Queries are read-only, so this is safe as long as no update
// runs concurrently — the serving engine calls it for its startup warm
// pass before any batch applies, and the top-k monitor for its initial
// scoreboard.
func (x *Index) CycleCountAll(workers int) (lengths []int, counts []uint64) {
	return cycleCountAll(x.g.NumVertices(), workers, x.CycleCount)
}

// cycleCountAll is the shared per-vertex fan-out behind both Counter
// implementations' CycleCountAll.
func cycleCountAll(n, workers int, count func(v int) (int, uint64)) (lengths []int, counts []uint64) {
	lengths = make([]int, n)
	counts = make([]uint64, n)
	forEach(n, workers, func(v int) { lengths[v], counts[v] = count(v) })
	return lengths, counts
}

// forEach runs fn(0..n-1) on up to workers goroutines (0 = all cores,
// clamped to n; sequential on the caller's goroutine at 1), handing out
// indices in ascending order — callers that sort heaviest-first keep the
// pool's tail short.
func forEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
