package core

import (
	"fmt"
	"sync"

	"repro/internal/cost"
)

// This file implements the incremental solver: a Plan retains the full
// per-processor DP rows produced by the Algorithm 2 recurrence, so that
// any suffix subproblem — "distribute d items over processors Pi..Pp" —
// is answered by an O(p) walk of the choice rows instead of a fresh
// O(p·n²) solve.
//
// The key structural fact (Section 3.2 of the paper): row i of the DP
// depends only on the processors at positions i..p-1 and on d. Rows are
// therefore computed from i = p-1 (the root, served last) down to
// i = 0, and a crash of the processor at service position i invalidates
// exactly the rows 0..i — the rows computed last — while rows i+1..p-1
// remain valid verbatim for the surviving suffix. Plan.Resolve exploits
// this: when the survivors share a cost-fingerprint suffix with the
// plan's platform, only the prefix rows are recomputed (none at all
// when the first-served processor is the one that crashed).

// planRow is one retained DP row: cost[d] is the optimal makespan of d
// items on the row's processor suffix, choice[d] the share the suffix's
// first processor takes. The ownership bits keep sync.Pool recycling
// sound when derived plans share rows: a row is returned to the pool
// only by the plan that allocated it (owned) and only if no derived
// plan ever borrowed it (lent — sticky, never cleared).
type planRow struct {
	cost   []float64
	choice []int32
	owned  bool
	lent   bool //scatterlint:guardedby (Engine).mu — sticky borrow bit; engine-less plans never set it
}

// pin marks the row lent so the owner's release() skips its buffers.
// The write is guarded: a row already pinned under the engine mutex
// (Plan.pinRows) is only read here, which keeps the engine's unlocked
// resolve phase free of writes to shared plan state.
func (r *planRow) pin() {
	//scatterlint:ignore lockguard pinRows sets lent under the engine mutex before the unlocked resolve phase; this path only re-reads the sticky bit and skips a redundant store
	if !r.lent {
		r.lent = true
	}
}

// Plan is a retained solution of the Algorithm 2 dynamic program for a
// platform and item count, answering suffix subproblems and warm-started
// re-solves without repeating work. Build one with SolvePlan or through
// an Engine. A Plan is not safe for concurrent use; the Engine
// serializes access to its cached plans.
type Plan struct {
	procs []Processor
	fps   []string // per-processor cost fingerprint; "" if opaque
	n     int      // rows answer any d in [0, n]
	rows  []planRow

	// refs counts in-flight engine resolves reading this plan's rows;
	// zombie marks a plan evicted from the cache while pinned, whose
	// buffers are freed on the last unpin instead. Both are guarded by
	// the engine mutex; they stay zero for engine-less plans.
	refs   int  //scatterlint:guardedby (Engine).mu
	zombie bool //scatterlint:guardedby (Engine).mu
}

// Items returns the item count the plan was solved for; Lookup and
// warm-started Resolve answer any count up to it.
func (pl *Plan) Items() int { return pl.n }

// Size returns the number of processors in the plan's platform.
func (pl *Plan) Size() int { return len(pl.procs) }

// SolvePlan runs the Algorithm 2 dynamic program over increasing cost
// functions and retains every DP row. The distribution reachable via
// Lookup(n, 0) is bit-identical to Algorithm2's: both fill their rows
// through fillRows.
func SolvePlan(procs []Processor, n int) (*Plan, error) {
	return solvePlan(nil, procs, n, 0)
}

// workers bounds the row pool for large solves; <= 0 selects
// GOMAXPROCS.
func solvePlan(tc *tabCache, procs []Processor, n, workers int) (*Plan, error) {
	if err := validateDPInput(procs, n); err != nil {
		return nil, err
	}
	pl := &Plan{
		procs: append([]Processor(nil), procs...),
		fps:   fingerprints(procs),
		n:     n,
		rows:  make([]planRow, len(procs)),
	}
	fillRows(tc, pl.procs, pl.fps, n, workers, pl.rows, len(procs)-1)
	return pl, nil
}

// Lookup answers the suffix subproblem "distribute d items over
// processors i..p-1" by walking the retained choice rows: O(p) time,
// no allocation beyond the returned distribution. The result is
// bit-identical to a fresh Algorithm2 solve on procs[i:] with d items.
func (pl *Plan) Lookup(d, i int) (Result, error) {
	p := len(pl.procs)
	if i < 0 || i >= p {
		return Result{}, fmt.Errorf("core: plan lookup position %d outside [0, %d)", i, p)
	}
	if d < 0 || d > pl.n {
		return Result{}, fmt.Errorf("core: plan lookup item count %d outside [0, %d]", d, pl.n)
	}
	procs := pl.procs[i:]
	dist := make(Distribution, p-i)
	rem := d
	for j := i; j < p; j++ {
		e := int(pl.rows[j].choice[rem])
		dist[j-i] = e
		rem -= e
	}
	return Result{Distribution: dist, Makespan: Makespan(procs, dist)}, nil
}

// Resolve computes an optimal distribution of remaining items over the
// survivors, reusing every DP row the crash left valid. When the
// survivors' cost fingerprints match a suffix of the plan's platform,
// only the prefix rows are recomputed (none when the survivors are a
// pure suffix — the first-served processor crashed); otherwise it falls
// back to a fresh solve. Either way the distribution is bit-identical
// to Algorithm2(survivors, remaining).
func (pl *Plan) Resolve(remaining int, survivors []Processor) (Result, error) {
	d, err := pl.resolve(nil, remaining, survivors, 0)
	if err != nil {
		return Result{}, err
	}
	return d.Lookup(remaining, 0)
}

// pinRows marks every row of the plan as lent, so release() will never
// recycle its buffers. The Engine calls this under its mutex before
// handing the plan to an unlocked resolve: from then on the resolve may
// alias the rows without writing the (now redundant) lent bits itself,
// keeping the unlocked phase free of writes to shared plan state.
func (pl *Plan) pinRows() {
	for i := range pl.rows {
		pl.rows[i].pin()
	}
}

// resolve is Resolve returning the derived plan, so the Engine can
// retain it for future warm starts. tc optionally caches cost tables
// across solves. The plan's rows must not be mutated here beyond the
// pin protocol: when the caller pre-pinned the plan (Engine path), the
// whole body is read-only with respect to pl.
func (pl *Plan) resolve(tc *tabCache, remaining int, survivors []Processor, workers int) (*Plan, error) {
	if err := validateDPInput(survivors, remaining); err != nil {
		return nil, err
	}
	if remaining > pl.n {
		// The retained rows are too narrow; nothing reusable.
		return solvePlan(tc, survivors, remaining, workers)
	}
	p, m := len(pl.procs), len(survivors)
	sfps := fingerprints(survivors)
	// Longest common fingerprint suffix. Opaque functions ("") never
	// match: closures cannot be proven equal, so their rows are never
	// reused.
	t := commonFPSuffix(pl.fps, sfps)
	if t == 0 {
		return solvePlan(tc, survivors, remaining, workers)
	}

	d := &Plan{
		procs: append([]Processor(nil), survivors...),
		fps:   sfps,
		rows:  make([]planRow, m),
	}
	// Borrow the valid suffix rows verbatim; pin them so the owner
	// never recycles them under us.
	for j := 0; j < t; j++ {
		src := &pl.rows[p-t+j]
		src.pin()
		d.rows[m-t+j] = planRow{cost: src.cost, choice: src.choice}
	}
	if t == m {
		// Pure suffix: every row survives at full width. The derived
		// plan inherits the whole warm-start range.
		d.n = pl.n
		return d, nil
	}
	// Partial reuse: recompute the invalidated prefix rows, at the
	// width actually needed now.
	d.n = remaining
	fillRows(tc, survivors, sfps, remaining, workers, d.rows, m-t-1)
	return d, nil
}

// release returns the plan's owned, never-lent row buffers to the pool.
// Called by the PlanCache on eviction; the plan must not be used after.
// A plan pinned by an in-flight engine resolve is only marked: its
// buffers are freed by the last unpin instead, so the resolve never
// reads recycled memory.
func (pl *Plan) release() {
	//scatterlint:ignore lockguard the engine evicts under its mutex; engine-less caches never pin, so refs and zombie stay zero on the unlocked path
	if pl.refs > 0 {
		pl.zombie = true
		return
	}
	pl.freeRows()
}

// freeRows recycles the owned, never-lent row buffers and nils every
// row. Callers must guarantee no reader is left (release, or the last
// engine unpin of a zombie).
func (pl *Plan) freeRows() {
	for i := range pl.rows {
		r := &pl.rows[i]
		//scatterlint:ignore lockguard callers guarantee no reader is left: eviction under the engine mutex, or the last unpin of a zombie
		if r.owned && !r.lent {
			putF64(r.cost)
			putI32(r.choice)
		}
		r.cost, r.choice = nil, nil
	}
}

// fingerprints computes the per-processor cost fingerprint used for
// suffix matching and cache keys: comm and comp fingerprints joined, or
// "" when either function is opaque.
func fingerprints(procs []Processor) []string {
	fps := make([]string, len(procs))
	var b []byte
	for i, pr := range procs {
		var ok bool
		if b, ok = appendFingerprint(b[:0], pr); ok {
			fps[i] = string(b)
		}
	}
	return fps
}

// appendFingerprint appends pr's comm|comp fingerprint to b, reporting
// whether both cost functions have one.
func appendFingerprint(b []byte, pr Processor) ([]byte, bool) {
	b, ok := cost.AppendFingerprint(b, pr.Comm)
	if !ok {
		return b, false
	}
	return cost.AppendFingerprint(append(b, '|'), pr.Comp)
}

// newPlanRow takes a row's buffers from the pools.
func newPlanRow(n int) planRow {
	return planRow{cost: getF64(n + 1), choice: getI32(n + 1), owned: true}
}

// Buffer pools for the O(p·n) row and table scratch, so steady-state
// re-solves allocate ~nothing.
var (
	f64Pool = sync.Pool{}
	i32Pool = sync.Pool{}
)

// getF64 returns a slice of length n whose entries are NOT zeroed;
// every caller overwrites the full range it reads.
func getF64(n int) []float64 {
	if v := f64Pool.Get(); v != nil {
		if s := v.([]float64); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

func putF64(s []float64) {
	if cap(s) > 0 {
		f64Pool.Put(s[:0])
	}
}

func getI32(n int) []int32 {
	if v := i32Pool.Get(); v != nil {
		if s := v.([]int32); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]int32, n)
}

func putI32(s []int32) {
	if cap(s) > 0 {
		i32Pool.Put(s[:0])
	}
}

// tabCache memoizes the comm/comp cost tables per fingerprint, so
// repeated solves on the same platform skip re-tabulation entirely. A
// nil *tabCache (the zero engine-less path) degrades to pooled scratch
// tables filled per call. Safe for concurrent use: published tables
// are immutable, and the mutex guards only map access — concurrent
// solves of distinct platforms tabulate in parallel.
type tabCache struct {
	mu   sync.Mutex
	tabs map[string][]float64 //scatterlint:guardedby mu — values are immutable once published
}

func newTabCache() *tabCache {
	return &tabCache{tabs: make(map[string][]float64)}
}

// tables returns comm and comp tables covering [0, n] for pr. The done
// function must be called when the caller is finished with the slices;
// it recycles pooled scratch (cached tables are retained and done is a
// no-op for them).
func (tc *tabCache) tables(pr Processor, fp string, n int) (comm, comp []float64, done func()) {
	if tc == nil || fp == "" {
		comm, comp = getF64(n+1), getF64(n+1)
		tabulate(pr, n, comm, comp)
		return comm, comp, func() { putF64(comm); putF64(comp) }
	}
	comm = tc.table(pr.Comm, "m|"+fp, n)
	comp = tc.table(pr.Comp, "p|"+fp, n)
	return comm, comp, func() {}
}

func (tc *tabCache) table(f cost.Function, key string, n int) []float64 {
	tc.mu.Lock()
	tab, ok := tc.tabs[key]
	tc.mu.Unlock()
	if ok && len(tab) >= n+1 {
		return tab[:n+1]
	}
	// Tabulate outside the lock so distinct platforms fill in
	// parallel; concurrent fills of one key duplicate O(n) work at
	// worst, and the widest table wins the publish.
	tab = make([]float64, n+1)
	fillCosts(f, n, tab)
	tc.mu.Lock()
	if cur, ok := tc.tabs[key]; ok && len(cur) >= len(tab) {
		tab = cur
	} else {
		tc.tabs[key] = tab
	}
	tc.mu.Unlock()
	return tab[:n+1]
}
