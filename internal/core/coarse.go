package core

import (
	"fmt"
	"math"
)

// This file implements the coarsen-then-refine solver for the cold
// path. Solving the Algorithm 2 recurrence on a grid of granularity g
// shrinks the row work by ~g², and a banded second pass refines the
// boundaries with the exact recurrence. The result is not guaranteed
// optimal, but it carries a machine-checked optimality band in the
// style of the Eq. (4) rounding guarantee: a companion optimistic
// dynamic program on the same grid lower-bounds the exact optimum, so
//
//	Makespan - Band <= Topt <= Makespan
//
// holds by construction, and every consumer can see how far from
// optimal the fast answer can possibly be.
//
// Grid structure. The reachable remainders are S = {s_0..s_K} with
// s_0 = 0, s_k = r + (k-1)·g, K = ceil(n/g) and r = n - (K-1)·g in
// (0, g], so s_K = n. A grid-feasible solution keeps every prefix
// remainder ("items left for processors i..p") in S; shares are then
// multiples of g except for the one that consumes the partial segment
// r. Snapping an optimal solution's prefix remainders down to S moves
// every share by less than g, which is what makes the grid optimum
// close to the true one (see CoarsenBound).

// CoarseResult is the outcome of a coarsen-then-refine solve: a
// feasible distribution plus a machine-checked optimality band.
type CoarseResult struct {
	Result
	// LowerBound is a proven lower bound on the exact optimal
	// makespan, computed by the optimistic grid dynamic program.
	LowerBound float64
	// Band bounds the distance to optimal:
	// Makespan - Topt <= Band = max(0, Makespan - LowerBound).
	Band float64
	// Granularity is the grid step the solve ran at (1 when the
	// instance was small enough to fall back to the exact DP).
	Granularity int
	// Refined reports whether the banded refinement pass ran.
	Refined bool
	// Exact reports that the solver fell back to the exact Algorithm
	// 2, so the distribution is optimal and Band is zero.
	Exact bool
}

// CoarseOptions tunes SolveCoarseOpt. The zero value refines with a
// window of one grid step.
type CoarseOptions struct {
	// Window is the refinement half-width in items around each coarse
	// cut; <= 0 selects the granularity g.
	Window int
	// SkipRefine returns the grid-optimal distribution without the
	// banded refinement pass (the engine's coarse-only policy). The
	// band still holds; it just tends to be wider.
	SkipRefine bool
}

// SolveCoarse computes a near-optimal distribution of n items at
// granularity g: it solves the Algorithm 2 recurrence restricted to
// grid-aligned cuts (K = ceil(n/g) cells per row instead of n), then
// refines a ±g window around each coarse cut with the exact
// recurrence. It requires increasing cost functions, like Algorithm2.
// Instances with n <= 4g fall back to the exact DP.
func SolveCoarse(procs []Processor, n, g int) (CoarseResult, error) {
	return SolveCoarseOpt(procs, n, g, CoarseOptions{})
}

// SolveCoarseOpt is SolveCoarse with explicit refinement options.
//
// Neither pass reads a processor's costs outside about K+1 shares per
// grid family and a refinement window about 4w+1 wide, so it
// evaluates exactly those shares instead of tabulating [0, n]. The
// values are the ones fillCosts would store: its Linear and Affine
// loops are the same expressions as their Eval methods.
func SolveCoarseOpt(procs []Processor, n, g int, opts CoarseOptions) (CoarseResult, error) {
	if g < 1 {
		return CoarseResult{}, fmt.Errorf("core: granularity %d < 1", g)
	}
	if err := validateDPInput(procs, n); err != nil {
		return CoarseResult{}, err
	}
	if g == 1 || n <= 4*g {
		// The grid would be too small to help; the exact DP is cheap
		// here and gives a zero band.
		res, err := Algorithm2(procs, n)
		if err != nil {
			return CoarseResult{}, err
		}
		return CoarseResult{Result: res, LowerBound: res.Makespan, Granularity: 1, Exact: true}, nil
	}
	p := len(procs)

	K := (n + g - 1) / g
	r := n - (K-1)*g // size of the first (partial) grid segment, in (0, g]
	// sv maps a grid state k to the remainder it stands for: s_k.
	sv := func(k int) int {
		if k == 0 {
			return 0
		}
		return r + (k-1)*g
	}
	// dLo is the smallest remainder in the interval I_k = (s_{k-1}, s_k]
	// that grid state k abstracts in the lower-bound DP.
	dLo := func(k int) int {
		if k == 0 {
			return 0
		}
		return sv(k-1) + 1
	}
	// eLo is the smallest share that can realize an interior transition
	// consuming j grid segments in the lower-bound DP.
	eLo := func(j int) int {
		if j == 0 {
			return 0
		}
		return (j-1)*g + 1
	}
	grid := func(j int) int { return j * g }

	// Two dynamic programs over the grid, filled in one pass per row:
	//
	// up[k]: the exact cost of the best grid-feasible split of s_k
	// items over the row's processor suffix — an upper bound on the
	// true cost, achieved by a real distribution (reconstructed from
	// choice).
	//
	// lb[k]: an optimistic value <= cost[d, i] for every d in I_k. Each
	// transition consuming j grid segments is charged the smallest
	// share that can realize it — eLo(j) = (j-1)·g + 1 interior,
	// s_{k-1}+1 when it empties the remainder — so by induction (costs
	// increasing, float rounding monotone) lb[K] at row 0 is a true
	// lower bound on the exact optimum for d = n.
	//
	// Transitions that leave items (j < k) take j·g items in the upper
	// DP and eLo(j) in the lower one; the transition that empties the
	// remainder (j = k) takes s_k and dLo(k). Each family is evaluated
	// once per processor into its own table, indexed by j or k.
	up := make([]float64, K+1)
	upNext := make([]float64, K+1)
	lb := make([]float64, K+1)
	lbNext := make([]float64, K+1)
	upPre, upSuf := make([]float64, K+1), make([]float64, K+1)
	lbPre, lbSuf := make([]float64, K+1), make([]float64, K+1)
	var upIn, upTop, lbIn, lbTop shareCosts
	choice := make([][]int32, p) // choice[i][k]: grid segments Pi takes
	for i := range choice {
		choice[i] = make([]int32, K+1)
	}

	upTop.eval(procs[p-1], K+1, sv)
	lbTop.eval(procs[p-1], K+1, dLo)
	for k := 0; k <= K; k++ {
		upNext[k] = upTop.comm[k] + upTop.comp[k]
		choice[p-1][k] = int32(k)
		lbNext[k] = lbTop.comm[k] + lbTop.comp[k]
	}

	for i := p - 2; i >= 0; i-- {
		pr := procs[i]
		upIn.eval(pr, K, grid)
		upTop.eval(pr, K+1, sv)
		lbIn.eval(pr, K, eLo)
		lbTop.eval(pr, K+1, dLo)
		prefixSuffixMin(upNext, upPre, upSuf)
		prefixSuffixMin(lbNext, lbPre, lbSuf)
		bj, lj := 0, 0 // the previous cell's minimizers seed each scan
		for k := 0; k <= K; k++ {
			// The transition emptying the remainder (j = k) is evaluated
			// last: its share does not follow the interior spacing, and
			// it is the largest j, so a tie never selects it.
			var bm float64
			bj, bm = argminTwoSided(upIn.comm, upIn.comp, upNext, upPre, upSuf, k, k-1, bj)
			if m := upTop.comm[k] + maxf(upTop.comp[k], upNext[0]); m < bm {
				bj, bm = k, m
			}
			up[k] = bm
			choice[i][k] = int32(bj)

			var lm float64
			lj, lm = argminTwoSided(lbIn.comm, lbIn.comp, lbNext, lbPre, lbSuf, k, k-1, lj)
			if m := lbTop.comm[k] + maxf(lbTop.comp[k], lbNext[0]); m < lm {
				lm = m
			}
			lb[k] = lm
		}
		up, upNext = upNext, up
		lb, lbNext = lbNext, lb
	}
	lower := lbNext[K]

	// Reconstruct the grid-optimal distribution.
	dist := make(Distribution, p)
	k := K
	for i := 0; i < p; i++ {
		j := int(choice[i][k])
		dist[i] = sv(k) - sv(k-j)
		k -= j
	}

	if opts.SkipRefine {
		res := Result{Distribution: dist, Makespan: Makespan(procs, dist)}
		band := res.Makespan - lower
		if band < 0 {
			band = 0
		}
		return CoarseResult{Result: res, LowerBound: lower, Band: band, Granularity: g}, nil
	}

	// Banded refinement: re-run the exact recurrence restricted to a
	// ±w window around the coarse trajectory's prefix remainders. The
	// coarse trajectory itself lies inside every window, so the refined
	// cost never exceeds the coarse one; the windows are monotone
	// (rem[i] >= rem[i+1]), so every banded cell has a feasible share.
	w := opts.Window
	if w <= 0 {
		w = g
	}
	rem := make([]int, p+1)
	rem[0] = n
	for i := 0; i < p; i++ {
		rem[i+1] = rem[i] - dist[i]
	}
	lo := make([]int, p)
	hi := make([]int, p)
	for i := 0; i < p; i++ {
		lo[i] = rem[i] - w
		if lo[i] < 0 {
			lo[i] = 0
		}
		hi[i] = rem[i] + w
		if hi[i] > n {
			hi[i] = n
		}
	}
	// The first row is only ever read at d = n (the full problem).
	lo[0], hi[0] = n, n

	costW := make([][]float64, p)
	choiceW := make([][]int32, p)
	for i := range costW {
		costW[i] = make([]float64, hi[i]-lo[i]+1)
		choiceW[i] = make([]int32, hi[i]-lo[i]+1)
	}

	var win shareCosts
	base := lo[p-1]
	win.eval(procs[p-1], hi[p-1]-base+1, func(x int) int { return base + x })
	for x := range costW[p-1] {
		costW[p-1][x] = win.comm[x] + win.comp[x]
		choiceW[p-1][x] = int32(base + x)
	}
	var pre, suf []float64
	for i := p - 2; i >= 0; i-- {
		// Row i reads shares d - d' for d in [lo[i], hi[i]] and d' in
		// row i+1's window.
		eMin := lo[i] - hi[i+1]
		if eMin < 0 {
			eMin = 0
		}
		win.eval(procs[i], hi[i]-lo[i+1]-eMin+1, func(x int) int { return eMin + x })
		next := costW[i+1]
		pre, suf = grow(pre, len(next)), grow(suf, len(next))
		prefixSuffixMin(next, pre, suf)
		refineRow(win.comm, win.comp, eMin, next, pre, suf, lo[i+1], costW[i], choiceW[i], lo[i], hi[i])
	}

	refined := make(Distribution, p)
	d := n
	for i := 0; i < p; i++ {
		e := int(choiceW[i][d-lo[i]])
		refined[i] = e
		d -= e
	}
	if err := refined.Validate(p, n); err != nil {
		return CoarseResult{}, fmt.Errorf("core: coarse refinement produced an invalid distribution: %w", err)
	}

	res := Result{Distribution: refined, Makespan: Makespan(procs, refined)}
	band := res.Makespan - lower
	if band < 0 {
		band = 0
	}
	return CoarseResult{Result: res, LowerBound: lower, Band: band, Granularity: g, Refined: true}, nil
}

// shareCosts holds one processor's costs at a family of shares:
// comm[x] = Tcomm(share(x)) and comp[x] = Tcomp(share(x)).
type shareCosts struct {
	comm, comp []float64
}

// eval fills the first m entries for pr, reusing the buffers.
func (sc *shareCosts) eval(pr Processor, m int, share func(int) int) {
	sc.comm, sc.comp = grow(sc.comm, m), grow(sc.comp, m)
	for x := 0; x < m; x++ {
		e := share(x)
		sc.comm[x] = pr.Comm.Eval(e)
		sc.comp[x] = pr.Comp.Eval(e)
	}
}

// grow returns s resliced to length m, reallocated when too short.
func grow(s []float64, m int) []float64 {
	if cap(s) < m {
		return make([]float64, m)
	}
	return s[:m]
}

// prefixSuffixMin sets pre[x] = min(v[:x+1]) and suf[x] = min(v[x:]).
// They bound v from below over every index at or below x (pre) and at
// or above x (suf) without assuming v is monotone.
func prefixSuffixMin(v, pre, suf []float64) {
	m := v[0]
	for x, y := range v {
		if y < m {
			m = y
		}
		pre[x] = m
	}
	m = v[len(v)-1]
	for x := len(v) - 1; x >= 0; x-- {
		if v[x] < m {
			m = v[x]
		}
		suf[x] = m
	}
}

// argminTwoSided minimizes f(j) = comm[j] + max(comp[j], next[k-j])
// over j in [0, top] (top <= k), returning the smallest minimizer and
// the minimum (0 and +Inf when top < 0). comm and comp are
// non-decreasing in j; next need not be monotone: pre and suf are its
// prefix and suffix minima. The scan starts at the hint (clipped) and
// moves both ways. Upward, every j' >= j costs at least comm[j] +
// max(comp[j], pre[k-j]), so the scan stops once that bound reaches
// the minimum. Downward, every j' in a block [a, j] costs at least
// comm[a] + suf[k-j]; blocks gallop as in rowRange, and since ties go
// to the smaller j only a bound strictly above the minimum prunes.
func argminTwoSided(comm, comp, next, pre, suf []float64, k, top, hint int) (int, float64) {
	if top < 0 {
		return 0, math.Inf(1)
	}
	s := hint
	if s < 0 {
		s = 0
	} else if s > top {
		s = top
	}
	sol, min := s, comm[s]+maxf(comp[s], next[k-s])
	for j := s + 1; j <= top; j++ {
		if comm[j]+maxf(comp[j], pre[k-j]) >= min {
			break
		}
		if m := comm[j] + maxf(comp[j], next[k-j]); m < min {
			sol, min = j, m
		}
	}
	for j, step := s-1, 1; j >= 0; {
		a := j - step + 1
		if a < 0 {
			a = 0
		}
		if comm[a]+suf[k-j] > min {
			j, step = a-1, step*2
			continue
		}
		if step > 1 {
			step /= 2
			continue
		}
		if m := comm[j] + maxf(comp[j], next[k-j]); m <= min {
			sol, min = j, m
		}
		j--
	}
	return sol, min
}

// refineRow fills one banded DP row: cost[d-lo] and choice[d-lo] for d
// in [lo, hi], where the next row is only known on [loNext, loNext +
// len(next) - 1] (pre and suf are its prefix and suffix minima) and
// the share costs from eOff on (comm[e-eOff]). The share range for
// each d is clipped so d-e stays inside the next row's window; windows
// produced by SolveCoarseOpt are monotone, which keeps that range
// non-empty. A banded next row is not monotone at its window edges,
// so rowRange's early break does not apply; argminTwoSided prunes
// through the minima instead, starting from the previous cell's share.
// Ties keep the smallest share, like Algorithm 1.
func refineRow(comm, comp []float64, eOff int, next, pre, suf []float64, loNext int, cost []float64, choice []int32, lo, hi int) {
	hiNext := loNext + len(next) - 1
	sol := 0
	for d := lo; d <= hi; d++ {
		eMin := d - hiNext
		if eMin < 0 {
			eMin = 0
		}
		// Share e = eMin + j leaves d - e = loNext + (k - j) items.
		k := d - eMin - loNext
		j, min := argminTwoSided(comm[eMin-eOff:], comp[eMin-eOff:], next, pre, suf, k, k, sol-eMin)
		sol = eMin + j
		cost[d-lo] = min
		choice[d-lo] = int32(sol)
	}
}

// CoarsenBound computes the a-priori optimality gap of solving at
// granularity g on affine platforms, generalizing Eq. (4) (which is
// the g = 1 case backing the rounding guarantee):
//
//	Topt <= Tcoarse <= Topt + sum_j Tcomm(j, g) + max_i Tcomp(i, g)
//
// Snapping an optimal solution's prefix remainders down to the grid
// moves every share by less than g, which for affine costs adds at
// most Tcomm(j, g) per link plus Tcomp(i, g) on the critical
// processor. The machine-checked CoarseResult.Band is usually far
// tighter; this bound needs no solve at all.
func CoarsenBound(procs []Processor, g int) float64 {
	sum := 0.0
	maxComp := 0.0
	for _, p := range procs {
		sum += p.Comm.Eval(g)
		if c := p.Comp.Eval(g); c > maxComp {
			maxComp = c
		}
	}
	return sum + maxComp
}
