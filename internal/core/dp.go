package core

import (
	"fmt"
	"runtime"

	"repro/internal/cost"
)

// Algorithm1 computes an optimal distribution of n items with the
// paper's basic dynamic program (Algorithm 1). It only requires the
// cost functions to be non-negative and null at x = 0, and runs in
// O(p·n²) time and O(p·n) space.
//
// The recurrence follows Section 3.2: the cost of processing d items on
// processors Pi..Pp is
//
//	cost[d, i] = min_{0<=e<=d} Tcomm(i,e) + max(Tcomp(i,e), cost[d-e, i+1])
//
// with cost[d, p] = Tcomm(p,d) + Tcomp(p,d). Among equal-cost choices
// the smallest share e is kept (ties broken toward earlier processors
// receiving less), so results are deterministic.
func Algorithm1(procs []Processor, n int) (Result, error) {
	if err := validateDPInput(procs, n); err != nil {
		return Result{}, err
	}
	p := len(procs)

	// choice[i*(n+1)+d] is the share given to processor i when d items
	// remain for processors i..p-1.
	choice := make([]int32, p*(n+1))

	// costNext holds cost[., i+1]; costCur is being filled for i.
	costNext := make([]float64, n+1)
	costCur := make([]float64, n+1)
	// comm and comp tabulate the current processor's cost functions so
	// the O(n²) inner loop indexes flat arrays instead of going
	// through interface dispatch.
	comm := make([]float64, n+1)
	comp := make([]float64, n+1)

	// Base: last processor takes everything that remains.
	tabulate(procs[p-1], n, comm, comp)
	for d := 0; d <= n; d++ {
		costNext[d] = comm[d] + comp[d]
		choice[(p-1)*(n+1)+d] = int32(d)
	}

	for i := p - 2; i >= 0; i-- {
		tabulate(procs[i], n, comm, comp)
		row := choice[i*(n+1) : (i+1)*(n+1)]
		costCur[0] = comm[0] + maxf(comp[0], costNext[0])
		row[0] = 0
		for d := 1; d <= n; d++ {
			// e = 0 initializer (the paper's line 11).
			sol := 0
			min := comm[0] + maxf(comp[0], costNext[d])
			for e := 1; e <= d; e++ {
				m := comm[e] + maxf(comp[e], costNext[d-e])
				if m < min {
					sol, min = e, m
				}
			}
			row[d] = int32(sol)
			costCur[d] = min
		}
		costCur, costNext = costNext, costCur
	}

	return reconstruct(procs, n, choice), nil
}

// tabulate fills comm[e] = Tcomm(i,e) and comp[e] = Tcomp(i,e) for
// e in [0, n], using closed forms for the linear and affine cost
// types and falling back to per-entry evaluation otherwise.
func tabulate(pr Processor, n int, comm, comp []float64) {
	fillCosts(pr.Comm, n, comm)
	fillCosts(pr.Comp, n, comp)
}

func fillCosts(f cost.Function, n int, out []float64) {
	switch cf := f.(type) {
	case cost.Linear:
		out[0] = 0
		for e := 1; e <= n; e++ {
			out[e] = cf.PerItem * float64(e)
		}
	case cost.Affine:
		out[0] = 0
		for e := 1; e <= n; e++ {
			out[e] = cf.Fixed + cf.PerItem*float64(e)
		}
	default:
		for e := 0; e <= n; e++ {
			out[e] = f.Eval(e)
		}
	}
}

// Algorithm2 computes an optimal distribution with the paper's
// optimized dynamic program (Algorithm 2). It requires the cost
// functions to be increasing; same worst-case complexity as Algorithm
// 1 (O(p·n²)) but O(p·n) in the best case and far faster in practice.
//
// Tie-break rule: each cell keeps the largest minimizing share e that
// does not exceed the crossover emax, the smallest e with
// Tcomp(i,e) >= cost[d-e, i+1]. Algorithm1 keeps the smallest
// minimizing e instead, so on ties the two agree on the makespan but
// not always on the distribution: two processors with Comp =
// Linear{1} and no communication cost give Algorithm1 [0 1] and
// Algorithm2 [1 0] at n = 1. Algorithm2Parallel, SolvePlan,
// Plan.Lookup and Plan.Resolve follow the same rule bit for bit, since
// they all fill their rows through fillRows.
func Algorithm2(procs []Processor, n int) (Result, error) {
	return Algorithm2Parallel(procs, n, 1)
}

// Algorithm2Parallel is Algorithm2 with each large DP row spread over
// a pool of workers (workers <= 0 selects GOMAXPROCS). Within one row
// the entries cost[d, i] for different d only read the previous row,
// so the result is bit-identical to Algorithm2; the row-to-row
// dependency stays sequential.
func Algorithm2Parallel(procs []Processor, n, workers int) (Result, error) {
	if err := validateDPInput(procs, n); err != nil {
		return Result{}, err
	}
	p := len(procs)
	// Two rolling cost rows and one contiguous choice table: rows are
	// touched in strict sequence, so blocking them together keeps the
	// allocator from scattering p large slices across the heap.
	costs := [2][]float64{make([]float64, n+1), make([]float64, n+1)}
	choice := make([]int32, p*(n+1))
	rows := make([]planRow, p)
	for i := range rows {
		rows[i] = planRow{cost: costs[i&1], choice: choice[i*(n+1) : (i+1)*(n+1)]}
	}
	// No fingerprints: the cost tables go to pooled scratch, reused
	// from row to row.
	fillRows(nil, procs, make([]string, p), n, workers, rows, p-1)
	return reconstruct(procs, n, choice), nil
}

// rowParallelThreshold is the item count from which fillRows spreads
// rows over a worker pool; below it the fan-out costs more than the
// row computation.
const rowParallelThreshold = 1 << 15

// fillRows is the one Algorithm 2 row loop. It fills rows[from] down
// to rows[0] over d in [0, n], taking pooled buffers for any row that
// has none. When from is the last processor its row is the base row:
// the last processor takes whatever remains. Otherwise rows after from
// are already valid (a Plan's partial reuse) and row from+1 seeds the
// recurrence. Each row's interior runs through rowRange, on a worker
// pool when n reaches rowParallelThreshold and more than one worker is
// allowed (workers <= 0 selects GOMAXPROCS). tc memoizes cost tables
// by fingerprint; a nil tc tabulates into pooled scratch.
func fillRows(tc *tabCache, procs []Processor, fps []string, n, workers int, rows []planRow, from int) {
	for i := 0; i <= from; i++ {
		if rows[i].cost == nil {
			rows[i] = newPlanRow(n)
		}
	}
	i := from
	if i == len(procs)-1 {
		comm, comp, done := tc.tables(procs[i], fps[i], n)
		cost, choice := rows[i].cost, rows[i].choice
		for d := 0; d <= n; d++ {
			cost[d] = comm[d] + comp[d]
			choice[d] = int32(d)
		}
		done()
		i--
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var rp *rowPool
	if i >= 0 && workers > 1 && n >= rowParallelThreshold {
		rp = newRowPool(workers)
		defer rp.close()
	}
	for ; i >= 0; i-- {
		comm, comp, done := tc.tables(procs[i], fps[i], n)
		next, cost, choice := rows[i+1].cost, rows[i].cost, rows[i].choice
		cost[0] = comm[0] + maxf(comp[0], next[0])
		choice[0] = 0
		if rp != nil {
			rp.row(comm, comp, next, cost, choice, n)
		} else {
			rowRange(comm, comp, next, cost, choice, 1, n)
		}
		done()
	}
}

func validateDPInput(procs []Processor, n int) error {
	if err := ValidateProcessors(procs); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("core: negative item count %d", n)
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// reconstruct walks the flat choice table (row i at [i*(n+1),
// (i+1)*(n+1))) from the full problem down to the last processor and
// evaluates the achieved makespan with Eq. (2). The evaluated makespan
// equals the DP cost for consistent cost functions; Result reports the
// evaluated value so that all solvers are compared on the same footing.
func reconstruct(procs []Processor, n int, choice []int32) Result {
	dist := make(Distribution, len(procs))
	d := n
	for i := range dist {
		e := int(choice[i*(n+1)+d])
		dist[i] = e
		d -= e
	}
	return Result{Distribution: dist, Makespan: Makespan(procs, dist)}
}

// RequireIncreasing verifies (by probing every count up to n) that all
// processors' cost functions are increasing, the precondition of
// Algorithm 2. Processors whose functions declare an analytic class of
// Increasing or better are trusted without probing.
func RequireIncreasing(procs []Processor, n int) error {
	for i, pr := range procs {
		for _, f := range []cost.Function{pr.Comm, pr.Comp} {
			if cost.ClassOf(f) >= cost.Increasing {
				continue
			}
			if err := cost.CheckIncreasing(f, n); err != nil {
				return fmt.Errorf("core: processor %d (%s): %w", i, pr.Name, err)
			}
		}
	}
	return nil
}
