package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/store"
)

// solve-table1 calls the library directly on the paper's Table 1 grid
// (16 processors), one caller, no HTTP and no store. Each repeat:
//
//  1. builds a fresh exact engine (2 workers);
//  2. cold-solves Table 1 at 100,000 items;
//  3. runs the crash cascade: the first-served processor lost (pure
//     suffix reuse), then service position 8 lost (partial reuse), at
//     seeded, shrinking item counts;
//  4. repeats the base solve (a plan-cache hit);
//  5. cold-solves Table 1 at the paper's 817,101 items on a fresh
//     coarse-refine engine (granularity 1024).
const (
	table1Items = 100000
	table1Lost  = 8
	// table1Jitter bounds how far each cascade step shrinks the item
	// count.
	table1Jitter  = 2000
	table1CoarseG = core.DefaultGranularity
)

// table1Step is one exact solve of the sequence with its reference.
type table1Step struct {
	step  string
	procs []core.Processor
	n     int
	ref   *core.Result
}

// table1State is the set-up sequence: inputs and fresh Algorithm 2
// references for every exact step.
type table1State struct {
	base, suffix, partial []core.Processor
	n1, n2                int
	refs                  [3]core.Result
	coarseBound           float64
	plat                  []byte
}

// table1Inputs derives the cascade from the seed: the processor lists
// are fixed by the paper, the cascade's item counts are drawn.
func table1Inputs(seed int64) (*table1State, error) {
	p := platform.Table1()
	procs, err := p.ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	t := &table1State{base: procs}
	t.suffix = procs[1:]
	t.partial = append(append([]core.Processor(nil), t.suffix[:table1Lost]...), t.suffix[table1Lost+1:]...)
	t.n1 = table1Items - 1 - rng.Intn(table1Jitter)
	t.n2 = t.n1 - 1 - rng.Intn(table1Jitter)
	t.coarseBound = core.CoarsenBound(procs, table1CoarseG)
	if t.plat, err = json.Marshal(p); err != nil {
		return nil, err
	}
	return t, nil
}

func table1Setup(seed int64) (*table1State, error) {
	t, err := table1Inputs(seed)
	if err != nil {
		return nil, err
	}
	jobs := []struct {
		procs []core.Processor
		n     int
	}{{t.base, table1Items}, {t.suffix, t.n1}, {t.partial, t.n2}}
	err = parallel(len(jobs), engineWorkers, func(i int) error {
		r, err := core.Algorithm2(jobs[i].procs, jobs[i].n)
		t.refs[i] = r
		return err
	})
	return t, err
}

func (t *table1State) steps() []table1Step {
	return []table1Step{
		{"cold", t.base, table1Items, &t.refs[0]},
		{"suffix", t.suffix, t.n1, &t.refs[1]},
		{"partial", t.partial, t.n2, &t.refs[2]},
		{"cache", t.base, table1Items, &t.refs[0]},
	}
}

// table1Phase is one measured phase of repeats.
type table1Phase struct {
	wall      time.Duration // solve time, probes excluded
	lat       []float64     // every verified solve, ms
	windows   []window      // one per repeat
	byStep    map[string][]float64
	bySource  map[string][]float64
	attempted int
	failed    int
	// exact and coarse count the answers checked against a fresh
	// Algorithm 2 result and by the coarse checks; the Bad fields count
	// those that failed.
	exact, exactBad   int
	coarse, coarseBad int
	eng               core.EngineStats
	bandRel           float64
	optMin            float64
	errs              []string
	mem               memResult
}

func (ph *table1Phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, fmt.Sprintf(format, args...))
	}
}

func (ph *table1Phase) rps() float64 { return float64(len(ph.lat)) / ph.wall.Seconds() }

// phase runs repeats until d has passed. Each repeat starts from a
// collected heap; the live-heap probe after it, with both engines still
// held, is outside the timed section, so wall counts solve time only.
func (t *table1State) phase(d time.Duration, tr *tracer) *table1Phase {
	ph := &table1Phase{bySource: map[string][]float64{}, byStep: map[string][]float64{}, optMin: 1}
	mem := readMem()
	deadline := time.Now().Add(d)
	for rep := int64(1); time.Now().Before(deadline); rep++ {
		start := time.Now()
		done := len(ph.lat)
		eng, coarse := t.repeat(ph, tr, rep)
		took := time.Since(start)
		ph.wall += took
		ph.windows = append(ph.windows, window{lat: append([]float64(nil), ph.lat[done:]...), secs: took.Seconds()})
		ph.mem.peakLive = max(ph.mem.peakLive, liveHeap())
		runtime.KeepAlive(eng)
		runtime.KeepAlive(coarse)
	}
	peak := ph.mem.peakLive
	ph.mem = memDelta(mem)
	ph.mem.peakLive = peak
	sort.Float64s(ph.lat)
	return ph
}

// repeat runs the sequence once and returns its two engines.
func (t *table1State) repeat(ph *table1Phase, tr *tracer, rep int64) (eng, coarse *core.Engine) {
	var root span
	if tr.active() {
		root = span{ID: tr.newID(), Req: rep, Name: spanRepeat, Start: tr.now()}
	}
	eng = core.NewEngineConfig(core.EngineConfig{Workers: engineWorkers})
	for _, s := range t.steps() {
		ph.attempted++
		res, info, took, err := tr.timedSolve(eng, s.procs, s.n, root.ID, rep)
		switch {
		case err != nil:
			ph.fail("%s solve: %v", s.step, err)
		case !sameResult(*s.ref, res.Distribution, res.Makespan):
			ph.exact++
			ph.exactBad++
			ph.fail("%s solve (%s) at %d items differs from fresh Algorithm2", s.step, info.Source, s.n)
		default:
			ph.exact++
			ph.record(s.step, info.Source.String(), took)
		}
	}
	ph.eng = addStats(ph.eng, eng.Stats())

	coarse = core.NewEngineConfig(core.EngineConfig{Workers: engineWorkers, Policy: core.PolicyCoarseRefine})
	ph.attempted++
	res, info, took, err := tr.timedSolve(coarse, t.base, platform.Table1Rays, root.ID, rep)
	if err != nil {
		ph.fail("coarse solve: %v", err)
	} else if msg := t.checkCoarse(res, info); msg != "" {
		ph.coarse++
		ph.coarseBad++
		ph.fail("coarse solve: %s", msg)
	} else {
		ph.coarse++
		ph.record("coarse", info.Source.String(), took)
		ph.bandRel = info.Bound / res.Makespan
		ph.optMin = min(ph.optMin, info.LowerBound/res.Makespan)
	}
	ph.eng = addStats(ph.eng, coarse.Stats())
	if tr.active() {
		root.End = tr.now()
		tr.record(root)
	}
	return eng, coarse
}

// record files a verified solve's latency under its step and source.
func (ph *table1Phase) record(step, source string, took time.Duration) {
	ph.lat = append(ph.lat, ms(took))
	ph.byStep[step] = append(ph.byStep[step], ms(took))
	ph.bySource[source] = append(ph.bySource[source], ms(took))
}

// checkCoarse verifies an approximate answer without solving exactly:
// it sums to n, its makespan re-evaluates identically through
// internal/schedule, its lower bound is at most its makespan, and its
// band is within CoarsenBound.
func (t *table1State) checkCoarse(res core.Result, info core.SolveInfo) string {
	if info.Policy != core.PolicyCoarseRefine || info.Granularity != table1CoarseG {
		return fmt.Sprintf("policy %v granularity %d, want coarse-refine %d", info.Policy, info.Granularity, table1CoarseG)
	}
	sum := 0
	for _, d := range res.Distribution {
		sum += d
	}
	if sum != platform.Table1Rays {
		return fmt.Sprintf("distribution sums to %d, want %d", sum, platform.Table1Rays)
	}
	tl, err := schedule.Build(t.base, res.Distribution)
	if err != nil {
		return err.Error()
	}
	if tl.Makespan != res.Makespan {
		return fmt.Sprintf("makespan %v re-evaluates to %v", res.Makespan, tl.Makespan)
	}
	if info.LowerBound > res.Makespan {
		return fmt.Sprintf("lower bound %v above makespan %v", info.LowerBound, res.Makespan)
	}
	if info.Bound > t.coarseBound {
		return fmt.Sprintf("band %v above CoarsenBound %v", info.Bound, t.coarseBound)
	}
	return ""
}

func addStats(a, b core.EngineStats) core.EngineStats {
	return core.EngineStats{
		ColdSolves:   a.ColdSolves + b.ColdSolves,
		Resolves:     a.Resolves + b.Resolves,
		CacheHits:    a.CacheHits + b.CacheHits,
		Fallbacks:    a.Fallbacks + b.Fallbacks,
		Coalesced:    a.Coalesced + b.Coalesced,
		CoarseSolves: a.CoarseSolves + b.CoarseSolves,
	}
}

func runTable1(cfg config) (*report, error) {
	runDir := cfg.workDir("run", "solve-table1-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(runDir)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	t, setup, err := medianSetup(setupRepeats(cfg), func(int) (*table1State, error) {
		return table1Setup(cfg.seed)
	}, func(*table1State) error { return nil })
	if err != nil {
		return nil, err
	}
	rep := &report{params: map[string]any{
		"processors": len(t.base), "items": table1Items, "suffix_items": t.n1, "partial_items": t.n2,
		"lost_position": table1Lost, "coarse_items": platform.Table1Rays, "granularity": table1CoarseG,
		"engine_workers": engineWorkers, "callers": 1, "setup_repeats": setupRepeats(cfg),
	}}

	base := t.phase(cfg.phaseLen(), tr)
	measured := base
	phases := []*table1Phase{base}
	if cfg.trace {
		tr.start()
		measured = t.phase(cfg.phaseLen(), tr)
		tr.stop()
		phases = append(phases, measured)
	}
	var exact, exactBad, coarse, coarseBad int
	for _, ph := range phases {
		rep.attempted, rep.failed = rep.attempted+ph.attempted, rep.failed+ph.failed
		exact, exactBad = exact+ph.exact, exactBad+ph.exactBad
		coarse, coarseBad = coarse+ph.coarse, coarseBad+ph.coarseBad
		for _, e := range ph.errs {
			fmt.Fprintln(os.Stderr, "solve-table1:", e)
		}
	}
	rep.check("exact answers bit-identical to fresh Algorithm2", exact, exactBad)
	rep.check("coarse: sums to n, schedule makespan equal, lb <= makespan, band <= CoarsenBound", coarse, coarseBad)
	rep.check("every solve returned without error", rep.attempted, rep.failed-exactBad-coarseBad)
	for _, src := range []string{"cold", "warm", "cache", "coarse"} {
		n := len(measured.bySource[src])
		rep.guard(fmt.Sprintf("source %s seen %d times", src, n), n > 0)
	}

	if !cfg.trace {
		// Rate and latencies are medians over repeats: per repeat, its
		// solves per second, its middle solve (the partial resolve)
		// and its slowest.
		w := summarize(base.windows)
		rep.metrics = []metric{
			{"setup_s", setup, "s"},
			{"plan_rps", w.rate, "1/s"},
			{"lat_p50_ms", w.p50, "ms"},
			{"lat_p99_ms", w.p99, "ms"},
			{"peak_heap_mb", float64(base.mem.peakLive) / 1e6, "MB"},
			{"opt_ratio_min", base.optMin, "ratio"},
		}
		rep.extra = []metric{
			{"failed_frac", float64(base.failed) / float64(max(base.attempted, 1)), "ratio"},
			{"cold_exact_ms", median(base.byStep["cold"]), "ms"},
			{"warm_suffix_ms", median(base.byStep["suffix"]), "ms"},
			{"warm_partial_ms", median(base.byStep["partial"]), "ms"},
			{"cache_hit_ms", median(base.byStep["cache"]), "ms"},
			{"coarse_refine_ms", median(base.byStep["coarse"]), "ms"},
			{"band_rel", base.bandRel, "ratio"},
			{"run_plan_rps", base.rps(), "1/s"},
			{"run_lat_p50_ms", percentile(base.lat, p50), "ms"},
			{"run_lat_p99_ms", percentile(base.lat, p99), "ms"},
			{"lat_samples", float64(len(base.lat)), "count"},
			{"repeats", float64(len(base.windows)), "count"},
			{"lat_p99_beyond_min", float64(w.minBeyond), "count"},
			{"wall_s", base.wall.Seconds(), "s"},
		}
		return rep, nil
	}
	entries := make([]store.Entry, 0, 3)
	for i, s := range t.steps()[:3] {
		entries = append(entries, store.Entry{Sig: sigOf(s.procs), Items: s.n, Makespan: t.refs[i].Makespan, Dist: t.refs[i].Distribution})
	}
	layers, err := traceLayers(cfg, tr, tracedRun{
		eng:      measured.eng,
		untraced: base.mem, untracedOps: len(base.lat), untracedRate: base.rps(), tracedRate: measured.rps(),
		bandRel: measured.bandRel, entries: entries, plats: [][]byte{t.plat},
	}, runDir)
	if err != nil {
		return nil, err
	}
	rep.metrics = layers
	rep.extra = []metric{
		{"lat_samples", float64(len(measured.lat)), "count"},
		{"untraced_plan_rps", base.rps(), "1/s"},
		{"traced_plan_rps", measured.rps(), "1/s"},
	}
	return rep, nil
}

func sigOf(procs []core.Processor) string {
	s, _ := core.PlatformSignature(procs)
	return s
}

// setupRepeats is how many times a run sets up: three for the median
// set-up time of an untraced run, once for a traced run.
func setupRepeats(cfg config) int {
	if cfg.trace {
		return 1
	}
	return 3
}
