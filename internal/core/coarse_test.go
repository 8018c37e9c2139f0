package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
)

// TestSolveCoarseWithinBand compares the coarse solver against the
// exact DP on random platforms with exact dyadic costs: the coarse
// makespan must bracket the optimum within the machine-checked band,
// and the lower bound must never exceed the true optimum.
func TestSolveCoarseWithinBand(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		p := 1 + rng.Intn(6)
		n := rng.Intn(2000)
		g := 1 + rng.Intn(64)
		var procs []Processor
		if trial%2 == 0 {
			procs = randomLinearProcs(rng, p)
		} else {
			procs = randomAffineProcs(rng, p)
		}
		exact, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := SolveCoarse(procs, n, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := cr.Distribution.Validate(p, n); err != nil {
			t.Fatalf("trial %d (p=%d n=%d g=%d): %v", trial, p, n, g, err)
		}
		if cr.Makespan < exact.Makespan {
			t.Fatalf("trial %d (p=%d n=%d g=%d): coarse %g beats the optimum %g",
				trial, p, n, g, cr.Makespan, exact.Makespan)
		}
		if cr.LowerBound > exact.Makespan {
			t.Fatalf("trial %d (p=%d n=%d g=%d): lower bound %g exceeds the optimum %g",
				trial, p, n, g, cr.LowerBound, exact.Makespan)
		}
		if cr.Makespan-exact.Makespan > cr.Band {
			t.Fatalf("trial %d (p=%d n=%d g=%d): gap %g outside the band %g",
				trial, p, n, g, cr.Makespan-exact.Makespan, cr.Band)
		}
		if cr.Exact && cr.Makespan != exact.Makespan {
			t.Fatalf("trial %d: exact fallback makespan %g != %g", trial, cr.Makespan, exact.Makespan)
		}
	}
}

// TestSolveCoarseRefinementHelps checks that the banded refinement
// never makes the answer worse than the grid-only solution.
func TestSolveCoarseRefinementHelps(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		p := 2 + rng.Intn(5)
		n := 200 + rng.Intn(3000)
		g := 8 + rng.Intn(32)
		procs := randomAffineProcs(rng, p)
		refined, err := SolveCoarse(procs, n, g)
		if err != nil {
			t.Fatal(err)
		}
		gridOnly, err := SolveCoarseOpt(procs, n, g, CoarseOptions{SkipRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		if refined.Makespan > gridOnly.Makespan {
			t.Fatalf("trial %d (p=%d n=%d g=%d): refined %g worse than grid-only %g",
				trial, p, n, g, refined.Makespan, gridOnly.Makespan)
		}
		if gridOnly.Refined || (!refined.Refined && !refined.Exact) {
			t.Fatalf("trial %d: Refined flags wrong: %v / %v", trial, gridOnly.Refined, refined.Refined)
		}
	}
}

// TestCoarsenBound machine-checks the a-priori gap on affine
// platforms: even without refinement, the grid optimum stays within
// CoarsenBound of the exact optimum, and Eq. (4)'s GuaranteeBound is
// recovered at g = 1.
func TestCoarsenBound(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 20; trial++ {
		p := 1 + rng.Intn(6)
		n := 100 + rng.Intn(2000)
		g := 4 + rng.Intn(48)
		procs := randomAffineProcs(rng, p)
		exact, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		gridOnly, err := SolveCoarseOpt(procs, n, g, CoarseOptions{SkipRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		if gap, bound := gridOnly.Makespan-exact.Makespan, CoarsenBound(procs, g); gap > bound {
			t.Fatalf("trial %d (p=%d n=%d g=%d): gap %g exceeds CoarsenBound %g",
				trial, p, n, g, gap, bound)
		}
	}
	procs := figure1Procs()
	if got, want := CoarsenBound(procs, 1), GuaranteeBound(procs); got != want {
		t.Errorf("CoarsenBound(procs, 1) = %g, want GuaranteeBound %g", got, want)
	}
}

// TestSolveCoarseExactFallback pins the small-instance fallback: tiny
// n or g = 1 must return the exact distribution bit-identically.
func TestSolveCoarseExactFallback(t *testing.T) {
	procs := figure1Procs()
	for _, tc := range []struct{ n, g int }{{9, 1}, {9, 4}, {40, 10}, {0, 8}} {
		exact, err := Algorithm2(procs, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := SolveCoarse(procs, tc.n, tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if !cr.Exact || cr.Band != 0 || cr.Granularity != 1 {
			t.Fatalf("n=%d g=%d: want exact fallback, got %+v", tc.n, tc.g, cr)
		}
		for i := range exact.Distribution {
			if cr.Distribution[i] != exact.Distribution[i] {
				t.Fatalf("n=%d g=%d: distribution %v != exact %v", tc.n, tc.g, cr.Distribution, exact.Distribution)
			}
		}
	}
}

func TestSolveCoarseValidation(t *testing.T) {
	procs := figure1Procs()
	if _, err := SolveCoarse(procs, 100, 0); err == nil {
		t.Error("granularity 0 accepted")
	}
	if _, err := SolveCoarse(procs, 100, -3); err == nil {
		t.Error("negative granularity accepted")
	}
	if _, err := SolveCoarse(procs, -1, 8); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := SolveCoarse(nil, 100, 8); err == nil {
		t.Error("no processors accepted")
	}
}

func TestSolveCoarseSingleProcessor(t *testing.T) {
	procs := []Processor{{Name: "only", Comm: cost.Zero, Comp: cost.Linear{PerItem: 0.5}}}
	cr, err := SolveCoarse(procs, 1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Distribution[0] != 1000 || cr.Makespan != 500 {
		t.Errorf("cr = %+v, want all 1000 items, makespan 500", cr)
	}
	// One processor has no split to get wrong: the band must be tight
	// enough to include the (optimal) answer it returns.
	if cr.LowerBound > cr.Makespan {
		t.Errorf("lower bound %g above makespan %g", cr.LowerBound, cr.Makespan)
	}
}

// unprunedSolveCoarse is the specification SolveCoarseOpt is checked
// against: the same grid, lower-bound DP and banded refinement, but
// over full [0, n] cost tables, with every grid transition and every
// refinement share evaluated (unprunedRefineRow). Its results must
// match SolveCoarseOpt bit for bit.
func unprunedSolveCoarse(procs []Processor, n, g int, opts CoarseOptions) CoarseResult {
	p := len(procs)
	tables := func(pr Processor) ([]float64, []float64) {
		comm, comp := make([]float64, n+1), make([]float64, n+1)
		tabulate(pr, n, comm, comp)
		return comm, comp
	}
	K := (n + g - 1) / g
	r := n - (K-1)*g
	sv := func(k int) int {
		if k == 0 {
			return 0
		}
		return r + (k-1)*g
	}
	dLo := func(k int) int {
		if k == 0 {
			return 0
		}
		return sv(k-1) + 1
	}
	up, upNext := make([]float64, K+1), make([]float64, K+1)
	lb, lbNext := make([]float64, K+1), make([]float64, K+1)
	choice := make([][]int32, p)
	for i := range choice {
		choice[i] = make([]int32, K+1)
	}
	comm, comp := tables(procs[p-1])
	for k := 0; k <= K; k++ {
		d := sv(k)
		upNext[k] = comm[d] + comp[d]
		choice[p-1][k] = int32(k)
		d = dLo(k)
		lbNext[k] = comm[d] + comp[d]
	}
	for i := p - 2; i >= 0; i-- {
		comm, comp := tables(procs[i])
		for k := 0; k <= K; k++ {
			base := sv(k)
			bj := 0
			bm := comm[0] + maxf(comp[0], upNext[k])
			lm := comm[0] + maxf(comp[0], lbNext[k])
			for j := 1; j <= k; j++ {
				e := base - sv(k-j)
				if m := comm[e] + maxf(comp[e], upNext[k-j]); m < bm {
					bj, bm = j, m
				}
				elo := (j-1)*g + 1
				if j == k {
					elo = dLo(k)
				}
				if m := comm[elo] + maxf(comp[elo], lbNext[k-j]); m < lm {
					lm = m
				}
			}
			up[k] = bm
			choice[i][k] = int32(bj)
			lb[k] = lm
		}
		up, upNext = upNext, up
		lb, lbNext = lbNext, lb
	}
	lower := lbNext[K]
	dist := make(Distribution, p)
	k := K
	for i := 0; i < p; i++ {
		j := int(choice[i][k])
		dist[i] = sv(k) - sv(k-j)
		k -= j
	}
	finish := func(dist Distribution, refined bool) CoarseResult {
		res := Result{Distribution: dist, Makespan: Makespan(procs, dist)}
		return CoarseResult{Result: res, LowerBound: lower, Band: math.Max(0, res.Makespan-lower), Granularity: g, Refined: refined}
	}
	if opts.SkipRefine {
		return finish(dist, false)
	}

	w := opts.Window
	if w <= 0 {
		w = g
	}
	lo, hi := make([]int, p), make([]int, p)
	for i, rem := 0, n; i < p; i++ {
		lo[i], hi[i] = max(0, rem-w), min(n, rem+w)
		rem -= dist[i]
	}
	lo[0], hi[0] = n, n
	costW := make([][]float64, p)
	choiceW := make([][]int32, p)
	for i := range costW {
		costW[i] = make([]float64, hi[i]-lo[i]+1)
		choiceW[i] = make([]int32, hi[i]-lo[i]+1)
	}
	comm, comp = tables(procs[p-1])
	for d := lo[p-1]; d <= hi[p-1]; d++ {
		costW[p-1][d-lo[p-1]] = comm[d] + comp[d]
		choiceW[p-1][d-lo[p-1]] = int32(d)
	}
	for i := p - 2; i >= 0; i-- {
		comm, comp := tables(procs[i])
		unprunedRefineRow(comm, comp, costW[i+1], lo[i+1], costW[i], choiceW[i], lo[i], hi[i])
	}
	refined := make(Distribution, p)
	for i, d := 0, n; i < p; i++ {
		refined[i] = int(choiceW[i][d-lo[i]])
		d -= refined[i]
	}
	return finish(refined, true)
}

// unprunedRefineRow is refineRow without pruning: every share of each
// cell's clipped range is evaluated, ties keeping the smallest.
func unprunedRefineRow(comm, comp, next []float64, loNext int, cost []float64, choice []int32, lo, hi int) {
	hiNext := loNext + len(next) - 1
	for d := lo; d <= hi; d++ {
		eMin := max(0, d-hiNext)
		eMax := d - loNext
		sol := eMin
		min := comm[eMin] + maxf(comp[eMin], next[d-eMin-loNext])
		for e := eMin + 1; e <= eMax; e++ {
			if m := comm[e] + maxf(comp[e], next[d-e-loNext]); m < min {
				sol, min = e, m
			}
		}
		cost[d-lo] = min
		choice[d-lo] = int32(sol)
	}
}

// checkCoarseMatchesUnpruned runs both solvers and fails unless the
// distribution, makespan, lower bound and band agree bit for bit.
func checkCoarseMatchesUnpruned(t *testing.T, procs []Processor, n, g int, opts CoarseOptions, label string) {
	t.Helper()
	got, err := SolveCoarseOpt(procs, n, g, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got.Exact {
		t.Fatalf("%s: fell back to the exact DP; the case does not exercise the grid", label)
	}
	want := unprunedSolveCoarse(procs, n, g, opts)
	for i := range want.Distribution {
		if got.Distribution[i] != want.Distribution[i] {
			t.Fatalf("%s: distribution %v != unpruned %v", label, got.Distribution, want.Distribution)
		}
	}
	if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) ||
		math.Float64bits(got.LowerBound) != math.Float64bits(want.LowerBound) ||
		math.Float64bits(got.Band) != math.Float64bits(want.Band) ||
		got.Refined != want.Refined {
		t.Fatalf("%s: (makespan %v, lb %v, band %v, refined %v) != unpruned (%v, %v, %v, %v)", label,
			got.Makespan, got.LowerBound, got.Band, got.Refined, want.Makespan, want.LowerBound, want.Band, want.Refined)
	}
}

// TestSolveCoarseMatchesUnpruned pins the pruned grid DP, the pruned
// refinement and the sparse cost evaluation to the unpruned solver
// over full tables, with and without refinement: on the paper's
// Table 1 grid at several (n, g), on random affine platforms, and on
// tie-heavy dyadic tables whose flat stretches make both tie rules
// matter.
func TestSolveCoarseMatchesUnpruned(t *testing.T) {
	procs := table1Procs()
	for _, c := range []struct{ n, g, w int }{
		{100000, 1024, 0}, {100000, 257, 0}, {30011, 64, 500}, {30011, 64, 0}, {5003, 500, 0},
	} {
		for _, skip := range []bool{false, true} {
			label := fmt.Sprintf("table1 n=%d g=%d w=%d skip=%v", c.n, c.g, c.w, skip)
			checkCoarseMatchesUnpruned(t, procs, c.n, c.g, CoarseOptions{Window: c.w, SkipRefine: skip}, label)
		}
	}
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 60; trial++ {
		p := 1 + rng.Intn(6)
		g := 2 + rng.Intn(40)
		n := 4*g + 1 + rng.Intn(3000)
		var procs []Processor
		if trial%2 == 0 {
			procs = randomAffineProcs(rng, p)
		} else {
			procs = dyadicProcs(rng, p, n)
		}
		opts := CoarseOptions{Window: rng.Intn(3 * g), SkipRefine: trial%5 == 0}
		checkCoarseMatchesUnpruned(t, procs, n, g, opts, fmt.Sprintf("trial %d (p=%d n=%d g=%d %+v)", trial, p, n, g, opts))
	}
}
