package core

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
)

func TestAlgorithm2ParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 16; trial++ {
		p := 1 + rng.Intn(6)
		n := rng.Intn(3000)
		var procs []Processor
		if trial%2 == 0 {
			procs = randomLinearProcs(rng, p)
		} else {
			procs = randomAffineProcs(rng, p)
		}
		if trial == 15 {
			// Past the threshold, workers 0, 2 and 7 send the rows
			// through the pooled fan-out. Free links keep each cell's
			// scan to a few steps, so the trial stays cheap under -race.
			n = rowParallelThreshold + 77
			for i := range procs {
				procs[i].Comm = cost.Zero
			}
		}
		seq, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 7} {
			par, err := Algorithm2Parallel(procs, n, workers)
			if err != nil {
				t.Fatal(err)
			}
			if par.Makespan != seq.Makespan {
				t.Fatalf("trial %d workers %d: parallel %g != sequential %g",
					trial, workers, par.Makespan, seq.Makespan)
			}
			// Bit-identical distributions (same tie-breaking).
			for i := range seq.Distribution {
				if par.Distribution[i] != seq.Distribution[i] {
					t.Fatalf("trial %d workers %d: distributions differ: %v vs %v",
						trial, workers, par.Distribution, seq.Distribution)
				}
			}
		}
	}
}

func TestAlgorithm2ParallelValidation(t *testing.T) {
	if _, err := Algorithm2Parallel(nil, 10, 4); err == nil {
		t.Error("no processors accepted")
	}
	if _, err := Algorithm2Parallel(figure1Procs(), -1, 4); err == nil {
		t.Error("negative n accepted")
	}
}

func TestAlgorithm2ParallelSingleProcessor(t *testing.T) {
	procs := figure1Procs()[3:]
	res, err := Algorithm2Parallel(procs, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distribution[0] != 9 {
		t.Errorf("solo distribution = %v", res.Distribution)
	}
}
