package core

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
)

// ablation switches off the paper's two Algorithm 2 optimizations in
// the reference solver (DESIGN.md ablation A1). The zero value is the
// full Algorithm 2.
type ablation struct {
	// noBinarySearch replaces the binary search for the
	// communication/computation crossover (the paper's lines 16-26)
	// with a descending scan starting at e = d.
	noBinarySearch bool
	// noEarlyBreak removes the monotonicity cutoff (the paper's lines
	// 32-34) from the descending scan.
	noEarlyBreak bool
}

// ablations lists the four reference variants under the sub-benchmark
// names of BenchmarkAlg2Ablation.
var ablations = []struct {
	name string
	ab   ablation
}{
	{"full", ablation{}},
	{"noBinarySearch", ablation{noBinarySearch: true}},
	{"noEarlyBreak", ablation{noEarlyBreak: true}},
	{"neither", ablation{noBinarySearch: true, noEarlyBreak: true}},
}

// referenceCell is the specification of one Algorithm 2 cell, written
// as plainly as possible and sharing no code with rowRange: a per-cell
// binary search for the crossover emax (the smallest e with comp[e] >=
// costNext[d-e], or d when there is none), then a descending scan over
// e < emax with the early break. Every variant returns the largest e
// in [0, emax] minimizing the recurrence. Without the binary search the
// scan starts at e = d; at or above the crossover the objective
// Tcomm+Tcomp does not decrease with e, so there a tie moves the scan
// down toward emax, while below it a tie keeps the larger e.
func referenceCell(comm, comp, costNext []float64, d int, ab ablation) (int32, float64) {
	sol := d
	if !ab.noBinarySearch {
		lo, hi := 0, d
		for lo < hi {
			mid := (lo + hi) / 2
			if comp[mid] >= costNext[d-mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		sol = lo
	}
	min := comm[sol] + maxf(comp[sol], costNext[d-sol])
	for e := sol - 1; e >= 0; e-- {
		rest := costNext[d-e]
		m := comm[e] + maxf(comp[e], rest)
		if m < min || (m == min && comp[e] >= rest) {
			sol, min = e, m
		} else if !ab.noEarlyBreak && rest >= min {
			// rest only grows as e decreases and Tcomm is
			// non-negative, so no smaller e can win.
			break
		}
	}
	return int32(sol), min
}

// referenceAlgorithm2 solves the whole Algorithm 2 dynamic program cell
// by cell through referenceCell, tabulating costs with Eval: the
// independent oracle production Algorithm2 is checked against, and the
// solver BenchmarkAlg2Ablation times.
func referenceAlgorithm2(procs []Processor, n int, ab ablation) Result {
	tab := func(f cost.Function) []float64 {
		t := make([]float64, n+1)
		for e := range t {
			t[e] = f.Eval(e)
		}
		return t
	}
	p := len(procs)
	choice := make([][]int32, p)
	last := procs[p-1]
	next := make([]float64, n+1)
	choice[p-1] = make([]int32, n+1)
	for d := 0; d <= n; d++ {
		next[d] = last.Comm.Eval(d) + last.Comp.Eval(d)
		choice[p-1][d] = int32(d)
	}
	for i := p - 2; i >= 0; i-- {
		comm, comp := tab(procs[i].Comm), tab(procs[i].Comp)
		cur := make([]float64, n+1)
		choice[i] = make([]int32, n+1)
		for d := 0; d <= n; d++ {
			choice[i][d], cur[d] = referenceCell(comm, comp, next, d, ab)
		}
		next = cur
	}
	dist := make(Distribution, p)
	for i, d := 0, n; i < p; i++ {
		dist[i] = int(choice[i][d])
		d -= dist[i]
	}
	return Result{Distribution: dist, Makespan: Makespan(procs, dist)}
}

// dyadicTable builds an increasing cost table that is null at zero
// items, with dyadic increments so float comparisons are exact.
func dyadicTable(rng *rand.Rand, n int, flat bool) []float64 {
	t := make([]float64, n+1)
	for d := 1; d <= n; d++ {
		step := float64(rng.Intn(4)) * 0.25
		if !flat && step == 0 {
			step = 0.25
		}
		t[d] = t[d-1] + step
	}
	return t
}

func checkRowAgainstReference(t *testing.T, comm, comp, costNext []float64, n int, label string) {
	t.Helper()
	cost := make([]float64, n+1)
	choice := make([]int32, n+1)
	rowRange(comm, comp, costNext, cost, choice, 1, n)
	for d := 1; d <= n; d++ {
		for _, v := range ablations {
			wantSol, wantMin := referenceCell(comm, comp, costNext, d, v.ab)
			if choice[d] != wantSol || cost[d] != wantMin {
				t.Fatalf("%s: d=%d: kernel (e=%d, %g) != reference %s (e=%d, %g)",
					label, d, choice[d], cost[d], v.name, wantSol, wantMin)
			}
		}
	}
}

// TestRowRangeMatchesReference drives the optimized kernel against
// every variant of the plain specification on random dyadic tables,
// including flat stretches that force ties.
func TestRowRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		flat := trial%2 == 0
		comm := dyadicTable(rng, n, flat)
		comp := dyadicTable(rng, n, flat)
		costNext := dyadicTable(rng, n, flat)
		checkRowAgainstReference(t, comm, comp, costNext, n, "random")
	}
}

// TestRowRangeCrossoverExtremes pins the emax boundary cases: a
// computation table that dwarfs the suffix cost (emax = 1 from the
// first cell on) and a zero computation table (emax = d in every cell,
// the seed advancing by exactly one per step).
func TestRowRangeCrossoverExtremes(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(8))
	small := dyadicTable(rng, n, false)
	comm := dyadicTable(rng, n, false)

	huge := make([]float64, n+1)
	for d := 1; d <= n; d++ {
		huge[d] = 1 << 20
	}
	checkRowAgainstReference(t, comm, huge, small, n, "huge comp")

	zero := make([]float64, n+1)
	checkRowAgainstReference(t, comm, zero, small, n, "zero comp")

	// Zero suffix cost: comp[e] >= costNext[d-e] already at e = 0.
	checkRowAgainstReference(t, comm, small, zero, n, "zero costNext")
}

// TestRowRangeChunkSplitIdentity is the property the worker pool relies
// on: splitting a row into arbitrary [lo, hi] chunks — each re-seeding
// emax with its own binary search — produces bit-identical cost and
// choice values to one full-range call.
func TestRowRangeChunkSplitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(150)
		comm := dyadicTable(rng, n, trial%2 == 0)
		comp := dyadicTable(rng, n, trial%2 == 0)
		costNext := dyadicTable(rng, n, trial%2 == 0)

		whole := make([]float64, n+1)
		wholeChoice := make([]int32, n+1)
		rowRange(comm, comp, costNext, whole, wholeChoice, 1, n)

		split := make([]float64, n+1)
		splitChoice := make([]int32, n+1)
		for lo := 1; lo <= n; {
			hi := lo + rng.Intn(17) // single-cell chunks included
			if hi > n {
				hi = n
			}
			rowRange(comm, comp, costNext, split, splitChoice, lo, hi)
			lo = hi + 1
		}
		for d := 1; d <= n; d++ {
			if split[d] != whole[d] || splitChoice[d] != wholeChoice[d] {
				t.Fatalf("trial %d d=%d: chunked (e=%d, %g) != whole (e=%d, %g)",
					trial, d, splitChoice[d], split[d], wholeChoice[d], whole[d])
			}
		}
	}
}

// TestRowRangeTable1LargeN checks the kernel where its skipped blocks
// grow long: on the Table 1 grid at n = 60,000 the scan below emax
// spans hundreds of shares per cell, far more than the small dyadic
// rows above. Every row is computed by rowRange from the
// previous DP row, as Algorithm2 does; the last cell and sampled ones
// are checked against every variant of the reference.
func TestRowRangeTable1LargeN(t *testing.T) {
	const n = 60000
	procs := table1Procs()
	p := len(procs)
	comm, comp := make([]float64, n+1), make([]float64, n+1)
	next, cur := make([]float64, n+1), make([]float64, n+1)
	choice := make([]int32, n+1)
	tabulate(procs[p-1], n, comm, comp)
	for d := range next {
		next[d] = comm[d] + comp[d]
	}
	rng := rand.New(rand.NewSource(10))
	for i := p - 2; i >= 0; i-- {
		tabulate(procs[i], n, comm, comp)
		rowRange(comm, comp, next, cur, choice, 1, n)
		for s := 0; s < 24; s++ {
			d := n
			if s > 0 {
				d = 1 + rng.Intn(n)
			}
			for _, v := range ablations {
				wantSol, wantMin := referenceCell(comm, comp, next, d, v.ab)
				if choice[d] != wantSol || cur[d] != wantMin {
					t.Fatalf("row %d d=%d: kernel (e=%d, %g) != reference %s (e=%d, %g)",
						i, d, choice[d], cur[d], v.name, wantSol, wantMin)
				}
			}
		}
		cur[0] = comm[0] + maxf(comp[0], next[0])
		next, cur = cur, next
	}
}

// TestRowRangeEmptyRange: an inverted range must not touch the output.
func TestRowRangeEmptyRange(t *testing.T) {
	comm := []float64{0, 1}
	comp := []float64{0, 1}
	costNext := []float64{0, 1}
	cost := []float64{-7, -7}
	choice := []int32{-7, -7}
	rowRange(comm, comp, costNext, cost, choice, 1, 0)
	if cost[0] != -7 || cost[1] != -7 || choice[0] != -7 || choice[1] != -7 {
		t.Fatalf("empty range wrote output: cost %v choice %v", cost, choice)
	}
}

// table1Procs is the paper's Table 1 grid as internal/platform expands
// it: one processor per CPU, the dinadan root last, the others in
// descending bandwidth order. Benchmarks here cannot import
// internal/platform, which imports core.
func table1Procs() []Processor {
	machines := []struct {
		name        string
		cpus        int
		alpha, beta float64
	}{
		{"pellinore", 1, 1.12e-5, 0.009365},
		{"caseb", 1, 1.00e-5, 0.004629},
		{"sekhmet", 1, 1.70e-5, 0.004885},
		{"merlin", 2, 8.15e-5, 0.003976},
		{"seven", 2, 2.10e-5, 0.016156},
		{"leda", 8, 3.53e-5, 0.009677},
	}
	var procs []Processor
	for _, m := range machines {
		for k := 0; k < m.cpus; k++ {
			procs = append(procs, Processor{Name: m.name, Comm: cost.Linear{PerItem: m.alpha}, Comp: cost.Linear{PerItem: m.beta}})
		}
	}
	procs = append(procs, Processor{Name: "dinadan", Comm: cost.Zero, Comp: cost.Linear{PerItem: 0.009288}})
	return Permute(procs, OrderDecreasingBandwidth(procs, len(procs)-1))
}

// BenchmarkAlg2Ablation isolates the two optimizations that turn
// Algorithm 1 into Algorithm 2, the binary-searched crossover and the
// early break (DESIGN.md ablation A1), by timing the reference solver
// with each switched off on the Table 1 grid. Run it with
//
//	go test -run '^$' -bench Alg2Ablation ./internal/core
func BenchmarkAlg2Ablation(b *testing.B) {
	procs := table1Procs()
	const n = 10000
	for _, v := range ablations {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ablationSink = referenceAlgorithm2(procs, n, v.ab)
			}
		})
	}
}

// ablationSink keeps the benchmarked solves from being optimized away.
var ablationSink Result
