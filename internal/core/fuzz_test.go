package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cost"
)

// FuzzRoundShares checks the float rounding adapter on arbitrary share
// vectors: the result always has the right length, is non-negative,
// and sums to n.
func FuzzRoundShares(f *testing.F) {
	f.Add(float64(2.5), float64(3.5), float64(4.0), 10)
	f.Add(0.0, 0.0, 0.0, 7)
	f.Add(math.NaN(), math.Inf(1), -5.0, 3)
	f.Add(1e18, 2e-18, 0.3, 100)
	f.Fuzz(func(t *testing.T, a, b, c float64, n int) {
		if n < 0 || n > 1<<20 {
			return
		}
		dist := RoundShares([]float64{a, b, c}, n)
		if len(dist) != 3 {
			t.Fatalf("len = %d", len(dist))
		}
		if dist.Sum() != n {
			t.Fatalf("sum = %d, want %d (shares %g %g %g)", dist.Sum(), n, a, b, c)
		}
		for i, x := range dist {
			if x < 0 {
				t.Fatalf("share %d negative: %d", i, x)
			}
		}
	})
}

// FuzzAlgorithm2Agreement fuzzes small DP instances against Algorithm 1
// on the structured inputs both support.
func FuzzAlgorithm2Agreement(f *testing.F) {
	f.Add(uint8(3), uint8(10), uint8(1), uint8(2), uint8(3))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(uint8(4), uint8(20), uint8(7), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, pRaw, nRaw, a1, b1, a2 uint8) {
		p := 1 + int(pRaw%4)
		n := int(nRaw % 24)
		procs := make([]Processor, p)
		for i := range procs {
			procs[i] = Processor{
				Name: "f",
				Comm: cost.Linear{PerItem: float64((int(a1)+i*int(a2))%8) * 0.25},
				Comp: cost.Linear{PerItem: float64(1+(int(b1)+i)%8) * 0.25},
			}
		}
		procs[p-1].Comm = cost.Zero
		r1, err := Algorithm1(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Makespan != r2.Makespan {
			t.Fatalf("Algorithm1 %g != Algorithm2 %g (p=%d n=%d)", r1.Makespan, r2.Makespan, p, n)
		}
		if err := r2.Distribution.Validate(p, n); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzCoarsen fuzzes the coarsen-then-refine solver against the exact
// Algorithm 2 on dyadic affine platforms, where every cost sum is
// exact in float64: the coarse makespan must never beat the optimum,
// the optimistic DP must really lower-bound it, and the realized gap
// must stay inside the machine-checked band. Off the exact fallback,
// both policies must also match the unpruned solver bit for bit.
func FuzzCoarsen(f *testing.F) {
	f.Add(uint8(3), uint8(200), uint8(7), uint8(1), uint8(2), uint8(3), uint8(1))
	f.Add(uint8(1), uint8(255), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(5), uint8(90), uint8(15), uint8(6), uint8(4), uint8(2), uint8(3))
	f.Add(uint8(2), uint8(37), uint8(2), uint8(7), uint8(1), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, pRaw, nRaw, gRaw, a1, b1, a2, c1 uint8) {
		p := 1 + int(pRaw%5)
		n := int(nRaw)
		g := 1 + int(gRaw%32)
		procs := make([]Processor, p)
		for i := range procs {
			procs[i] = Processor{
				Name: "f",
				Comm: cost.Affine{
					Fixed:   float64(int(c1)%4) * 0.25,
					PerItem: float64((int(a1)+i*int(a2))%8) * 0.25,
				},
				Comp: cost.Linear{PerItem: float64(1+(int(b1)+i)%8) * 0.25},
			}
		}
		procs[p-1].Comm = cost.Zero
		exact, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := SolveCoarse(procs, n, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := cr.Distribution.Validate(p, n); err != nil {
			t.Fatalf("p=%d n=%d g=%d: %v", p, n, g, err)
		}
		if cr.Makespan != Makespan(procs, cr.Distribution) {
			t.Fatalf("p=%d n=%d g=%d: reported makespan %g != evaluated %g",
				p, n, g, cr.Makespan, Makespan(procs, cr.Distribution))
		}
		if cr.Makespan < exact.Makespan {
			t.Fatalf("p=%d n=%d g=%d: coarse %g beats the optimum %g", p, n, g, cr.Makespan, exact.Makespan)
		}
		if cr.LowerBound > exact.Makespan {
			t.Fatalf("p=%d n=%d g=%d: lower bound %g exceeds the optimum %g", p, n, g, cr.LowerBound, exact.Makespan)
		}
		if cr.Makespan-exact.Makespan > cr.Band {
			t.Fatalf("p=%d n=%d g=%d: gap %g outside the band %g",
				p, n, g, cr.Makespan-exact.Makespan, cr.Band)
		}
		if cr.Exact {
			for i := range exact.Distribution {
				if cr.Distribution[i] != exact.Distribution[i] {
					t.Fatalf("p=%d n=%d g=%d: exact fallback %v != Algorithm2 %v",
						p, n, g, cr.Distribution, exact.Distribution)
				}
			}
		} else {
			for _, opts := range []CoarseOptions{{}, {SkipRefine: true}} {
				checkCoarseMatchesUnpruned(t, procs, n, g, opts, fmt.Sprintf("p=%d n=%d g=%d %+v", p, n, g, opts))
			}
		}
		gridOnly, err := SolveCoarseOpt(procs, n, g, CoarseOptions{SkipRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		if cr.Makespan > gridOnly.Makespan {
			t.Fatalf("p=%d n=%d g=%d: refined %g worse than grid-only %g",
				p, n, g, cr.Makespan, gridOnly.Makespan)
		}
	})
}
