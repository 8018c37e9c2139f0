package core

import (
	"sync"
	"sync/atomic"
)

// rowWork is one DP row being computed across the pool. Workers claim
// disjoint contiguous chunks of the d range by advancing the atomic
// cursor, so dispatching a row costs one channel send per worker — not
// one per chunk — and the chunk size can shrink for load balance
// without growing coordination traffic.
type rowWork struct {
	comm, comp, costNext, costCur []float64
	choice                        []int32
	n, chunk                      int
	cursor                        atomic.Int64
}

// rowPool is a persistent pool of workers computing disjoint chunks of
// DP rows. The workers are spawned once per solve and reused for every
// row. Within a row, chunks are independent (they only read the
// previous row), so the result is bit-identical to the sequential
// recurrence; the row-to-row dependency stays sequential via the
// per-row barrier in row().
type rowPool struct {
	work    chan *rowWork
	wg      sync.WaitGroup // per-row barrier, one Done per worker
	workers int
}

// newRowPool starts workers goroutines that wait for rows. Callers
// must close() the pool when done.
func newRowPool(workers int) *rowPool {
	rp := &rowPool{work: make(chan *rowWork, workers), workers: workers}
	for k := 0; k < workers; k++ {
		go func() {
			for w := range rp.work {
				for {
					c := int(w.cursor.Add(1) - 1)
					lo := 1 + c*w.chunk
					if lo > w.n {
						break
					}
					hi := lo + w.chunk - 1
					if hi > w.n {
						hi = w.n
					}
					rowRange(w.comm, w.comp, w.costNext, w.costCur, w.choice, lo, hi)
				}
				rp.wg.Done()
			}
		}()
	}
	return rp
}

// minRowChunk keeps chunks big enough that the per-chunk binary-search
// seed and the atomic claim are amortized; rowChunksPerWorker trades
// tail latency (stragglers finish early chunks while others run) for
// claim traffic.
const (
	minRowChunk        = 256
	rowChunksPerWorker = 8
)

// row fills costCur[1..n] and choice[1..n] from costNext across the
// pool and returns once the whole row is done (the caller fills the
// d = 0 entry). The chunk size adapts to n and the worker count, so
// large rows split finely enough to balance; fillRows keeps rows too
// small to repay the fan-out off the pool.
func (rp *rowPool) row(comm, comp, costNext, costCur []float64, choice []int32, n int) {
	chunk := (n + rp.workers*rowChunksPerWorker - 1) / (rp.workers * rowChunksPerWorker)
	if chunk < minRowChunk {
		chunk = minRowChunk
	}
	w := &rowWork{comm: comm, comp: comp, costNext: costNext, costCur: costCur, choice: choice, n: n, chunk: chunk}
	rp.wg.Add(rp.workers)
	for k := 0; k < rp.workers; k++ {
		rp.work <- w
	}
	rp.wg.Wait()
}

// close shuts the workers down once all submitted rows have completed.
func (rp *rowPool) close() { close(rp.work) }

// rowRange fills cost[d] and choice[d] for d in [lo, hi] using the
// Algorithm 2 recurrence (binary-searched crossover + early break,
// generalized to a galloping block lower bound). It only reads comm,
// comp and costNext, so disjoint ranges may run concurrently. This is
// the single row kernel behind fillRows, and so behind Algorithm2,
// Algorithm2Parallel and the incremental Plan solver, which is what
// keeps their results bit-identical.
//
// The crossover emax(d) — the smallest e with comp[e] >= costNext[d-e]
// (or d when no such e exists) — is monotone in d, and moreover
// advances by at most one per cell: if comp[e] >= costNext[d-1-e] then
// comp[e+1] >= costNext[d-(e+1)]. So only the first cell of a range
// pays a binary search; every following cell re-seeds emax from its
// left neighbor with a single comparison, replacing O(log n) scattered
// probes per cell with an amortized O(1) sequential access. The seeded
// value is the same lower bound the binary search would return, so the
// kernel stays bit-identical to a per-cell search (the reference in
// rowrange_test.go).
//
// Below emax the scan descends, and the paper's early break stops it
// once costNext[d-e] alone reaches the best value. The block bound
// generalizes that break: every share e' in a block [a, e] costs at
// least comm[a] + costNext[d-e], because comm and costNext are
// non-decreasing (Algorithm 2's precondition) and rounded + and max
// are monotone. A block whose bound reaches min holds no strictly
// better share, so it is skipped whole and the next block is twice as
// long; a block that cannot be skipped is halved until it is one
// share, which is evaluated exactly as before. The scan keeps its
// strict update, so every stored value and choice — the largest
// minimizing e <= emax — is the one the plain scan finds.
func rowRange(comm, comp, costNext, costCur []float64, choiceRow []int32, lo, hi int) {
	if lo > hi {
		return
	}
	// Hoist the bounds checks: every index below is within [0, hi].
	comm = comm[: hi+1 : hi+1]
	comp = comp[: hi+1 : hi+1]
	costNext = costNext[: hi+1 : hi+1]
	costCur = costCur[: hi+1 : hi+1]
	choiceRow = choiceRow[: hi+1 : hi+1]

	// Seed emax at d = lo with the usual binary search.
	l, h := 0, lo
	for l < h {
		mid := int(uint(l+h) >> 1)
		if comp[mid] >= costNext[lo-mid] {
			h = mid
		} else {
			l = mid + 1
		}
	}
	emax := l

	for d := lo; d <= hi; d++ {
		if d > lo && emax < d && comp[emax] < costNext[d-emax] {
			// The crossover moved: it advances by exactly one.
			emax++
		}
		// For e >= emax the objective is Tcomm+Tcomp, both increasing,
		// so emax is the best candidate there.
		sol := emax
		min := comm[sol] + maxf(comp[sol], costNext[d-sol])
		// Descending scan over e < sol, where the max is realized by
		// costNext[d-e].
		for e, step := sol-1, 1; e >= 0; {
			rest := costNext[d-e]
			if rest >= min {
				// costNext[d-e] only grows as e decreases and Tcomm is
				// non-negative, so no smaller e can win.
				break
			}
			a := e - step + 1
			if a < 0 {
				a = 0
			}
			if comm[a]+rest >= min {
				e, step = a-1, step*2
				continue
			}
			if step > 1 {
				step /= 2
				continue
			}
			if m := comm[e] + maxf(comp[e], rest); m < min {
				sol, min = e, m
			}
			e--
		}
		choiceRow[d] = int32(sol)
		costCur[d] = min
	}
}
