package core

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/cost"
)

// PlatformClass returns the weakest analytic class among all cost
// functions of procs: the class that decides which solver is safe for
// the platform. It is the single dispatch rule shared by the Engine,
// the mpi runtime and the chaos harness.
func PlatformClass(procs []Processor) cost.Class {
	class := cost.LinearClass
	for _, p := range procs {
		for _, f := range []cost.Function{p.Comm, p.Comp} {
			if c := cost.ClassOf(f); c < class {
				class = c
			}
		}
	}
	return class
}

// EngineStats counts how the Engine satisfied its solves.
type EngineStats struct {
	// ColdSolves is the number of from-scratch plan builds.
	ColdSolves int
	// Resolves is the number of warm starts: a cached plan's rows were
	// partially or fully reused for a different platform or item count.
	Resolves int
	// CacheHits is the number of solves answered entirely from a cached
	// plan (O(p) reconstruction, no DP work) or a cached coarse result.
	CacheHits int
	// Fallbacks is the number of solves routed to the non-incremental
	// solvers: general-class platforms (Algorithm 1) or opaque cost
	// functions that cannot be fingerprinted (fresh Algorithm 2).
	Fallbacks int
	// Coalesced is the number of solves answered by waiting on an
	// identical in-flight solve (same signature and item count) instead
	// of starting their own DP — the singleflight waiters.
	Coalesced int
	// CoarseSolves is the number of solves answered by the
	// coarsen-then-refine solver under a coarse policy.
	CoarseSolves int
}

// SolvePolicy selects how an Engine answers solves that miss every
// cache: exactly, or with the coarsen-then-refine solver and a
// machine-checked optimality band.
type SolvePolicy int

const (
	// PolicyExact always runs the exact DP. The zero value, and the
	// only policy whose plans are retained for warm starts.
	PolicyExact SolvePolicy = iota
	// PolicyCoarseRefine answers large cold solves with the coarse DP
	// plus banded exact refinement (SolveCoarse).
	PolicyCoarseRefine
	// PolicyCoarseOnly answers large cold solves with the grid-optimal
	// distribution alone — fastest, widest band.
	PolicyCoarseOnly
)

// String names the policy for flags, reports and the daemon's JSON.
func (p SolvePolicy) String() string {
	switch p {
	case PolicyExact:
		return "exact"
	case PolicyCoarseRefine:
		return "coarse-refine"
	case PolicyCoarseOnly:
		return "coarse-only"
	default:
		return "policy(" + strconv.Itoa(int(p)) + ")"
	}
}

// ParsePolicy parses the String form of a SolvePolicy.
func ParsePolicy(s string) (SolvePolicy, error) {
	switch s {
	case "exact":
		return PolicyExact, nil
	case "coarse-refine":
		return PolicyCoarseRefine, nil
	case "coarse-only":
		return PolicyCoarseOnly, nil
	}
	return 0, fmt.Errorf("core: unknown solve policy %q (want exact, coarse-refine or coarse-only)", s)
}

// SolveSource classifies the path a Solve took through the engine.
type SolveSource int

const (
	// SourceCold is a from-scratch plan build.
	SourceCold SolveSource = iota
	// SourceResolve is a warm start from a cached plan's suffix rows.
	SourceResolve
	// SourceCacheHit is an O(p) answer from a retained plan.
	SourceCacheHit
	// SourceFallback is a non-incremental solve: a general-class
	// platform (Algorithm 1) or an unfingerprintable cost function
	// (fresh Algorithm 2).
	SourceFallback
	// SourceCoarse is a coarsen-then-refine solve under a coarse
	// policy, carrying an optimality band instead of exactness.
	SourceCoarse
)

// String names the source for reports and the daemon's JSON responses.
func (s SolveSource) String() string {
	switch s {
	case SourceCold:
		return "cold"
	case SourceResolve:
		return "warm"
	case SourceCacheHit:
		return "cache"
	case SourceFallback:
		return "fallback"
	case SourceCoarse:
		return "coarse"
	default:
		return "source(" + strconv.Itoa(int(s)) + ")"
	}
}

// SolveInfo describes how a solve was satisfied.
type SolveInfo struct {
	// Source is the path the answering solve took. For a coalesced
	// caller it is the leader's path.
	Source SolveSource
	// Coalesced reports that this caller did no DP work of its own: it
	// waited on an identical in-flight solve and shared its result.
	Coalesced bool
	// Signature is the canonical platform signature, or "" when the
	// platform cannot be fingerprinted (opaque or general-class costs).
	Signature string
	// Policy is the solve policy that produced the result. Exact
	// sources — including coarse-policy solves small enough to fall
	// back to the exact DP — report PolicyExact.
	Policy SolvePolicy
	// Granularity is the grid step of a coarse solve; 0 for exact.
	Granularity int
	// Bound is the realized optimality band: the makespan exceeds the
	// optimum by at most Bound. Exact solves report 0.
	Bound float64
	// LowerBound is the proven lower bound on the optimal makespan
	// backing Bound; 0 for exact solves (where the makespan itself is
	// the optimum).
	LowerBound float64
}

// PlatformSignature returns the canonical cost signature of procs — the
// per-processor comm|comp fingerprints joined with ";" — and whether
// one exists. Two platforms with equal signatures solve bit-identically
// at every item count, so the signature is a safe key for plan caches
// and the daemon's durable plan store. General-class platforms and
// platforms containing an opaque cost function have no signature.
func PlatformSignature(procs []Processor) (string, bool) {
	if PlatformClass(procs) == cost.General {
		return "", false
	}
	return signature(procs)
}

// signature is PlatformSignature without the class check, appended
// into one buffer so that the only string it allocates is the result.
func signature(procs []Processor) (string, bool) {
	b := make([]byte, 0, 64*len(procs))
	for i, pr := range procs {
		if i > 0 {
			b = append(b, ';')
		}
		var ok bool
		if b, ok = appendFingerprint(b, pr); !ok {
			return "", false
		}
	}
	return string(b), true
}

// Engine is the incremental solver: it answers distribution requests
// from a bounded cache of retained plans, warm-starting from the plan
// with the longest matching platform suffix and falling back to a cold
// solve only when nothing is reusable. All results are bit-identical to
// the fresh class-dispatched solvers (Algorithm 1 for general
// platforms, Algorithm 2 otherwise). Safe for concurrent use: the
// engine mutex guards only cache bookkeeping and counters, never a DP
// solve, so distinct platform signatures solve in parallel while
// identical in-flight requests coalesce onto one solve (singleflight).
type Engine struct {
	mu      sync.Mutex
	cache   *PlanCache         //scatterlint:guardedby mu
	tabs    *tabCache          //scatterlint:guardedby immutable — set once in the constructor; internally synchronized
	stats   EngineStats        //scatterlint:guardedby mu
	flights map[string]*flight //scatterlint:guardedby mu

	workers   int         //scatterlint:guardedby immutable
	policy    SolvePolicy //scatterlint:guardedby immutable
	gran      int         //scatterlint:guardedby immutable
	coarseMin int         //scatterlint:guardedby immutable

	// coarseCache memoizes coarse results by solve key. Coarse answers
	// never enter the plan cache (their rows are not exact DP rows), so
	// they get their own small FIFO-evicted table; entries are tiny — a
	// distribution plus the band.
	coarseCache map[string]CoarseResult //scatterlint:guardedby mu
	coarseOrder []string                //scatterlint:guardedby mu
	coarseCap   int                     //scatterlint:guardedby immutable
}

// flight is one in-progress solve that identical requests wait on. Its
// result fields are written exactly once, before done is closed.
type flight struct {
	done chan struct{} //scatterlint:guardedby immutable
	res  Result        //scatterlint:guardedby immutable — written under e.mu before close(done)
	info SolveInfo     //scatterlint:guardedby immutable — written under e.mu before close(done)
	err  error         //scatterlint:guardedby immutable — written under e.mu before close(done)
}

// DefaultPlanCacheCapacity bounds an Engine's plan cache when
// NewEngine is given a non-positive capacity. Rebalance sequences
// shrink one platform signature at a time, so a handful of retained
// plans covers a whole crash cascade.
const DefaultPlanCacheCapacity = 8

// DefaultGranularity is the coarse grid step used when EngineConfig
// leaves Granularity unset. At the paper's 817k-item scale it puts the
// coarsen-then-refine solve around 100x under the exact cold solve
// while keeping the realized band under ~1% of the makespan.
const DefaultGranularity = 1024

// DefaultCoarseMinItems is the item count below which coarse policies
// still solve exactly: under it the exact DP costs about as little as
// the refinement window itself, so approximating buys nothing.
const DefaultCoarseMinItems = 1 << 17

// EngineConfig tunes an Engine beyond the plan-cache capacity.
type EngineConfig struct {
	// Capacity bounds the plan cache (DefaultPlanCacheCapacity when
	// <= 0).
	Capacity int
	// Workers bounds the DP row pool used by large cold and warm
	// solves; <= 0 selects GOMAXPROCS.
	Workers int
	// Policy selects exact or coarse solving for cache-missing solves.
	Policy SolvePolicy
	// Granularity is the coarse grid step (DefaultGranularity when
	// <= 0). Ignored under PolicyExact.
	Granularity int
	// CoarseMinItems is the item count under which coarse policies
	// fall back to the exact DP (DefaultCoarseMinItems when <= 0).
	CoarseMinItems int
}

// NewEngine returns an Engine whose cache holds up to capacity plans
// (DefaultPlanCacheCapacity when capacity <= 0), solving exactly.
func NewEngine(capacity int) *Engine {
	return NewEngineConfig(EngineConfig{Capacity: capacity})
}

// NewEngineConfig returns an Engine with explicit solve policy and
// worker configuration.
func NewEngineConfig(cfg EngineConfig) *Engine {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultPlanCacheCapacity
	}
	if cfg.Granularity <= 0 {
		cfg.Granularity = DefaultGranularity
	}
	if cfg.CoarseMinItems <= 0 {
		cfg.CoarseMinItems = DefaultCoarseMinItems
	}
	return &Engine{
		cache:       NewPlanCache(cfg.Capacity),
		tabs:        newTabCache(),
		flights:     make(map[string]*flight),
		workers:     cfg.Workers,
		policy:      cfg.Policy,
		gran:        cfg.Granularity,
		coarseMin:   cfg.CoarseMinItems,
		coarseCache: make(map[string]CoarseResult),
		coarseCap:   4 * cfg.Capacity,
	}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Solve computes an optimal distribution of n items over procs (service
// order, root last), reusing retained DP state whenever it provably
// cannot change the result: an exact platform-signature hit answers in
// O(p); otherwise the cached plan sharing the longest cost-fingerprint
// suffix is warm-started via Plan.resolve; otherwise a cold plan is
// built and retained. General-class platforms and opaque cost functions
// bypass the plan machinery entirely.
func (e *Engine) Solve(procs []Processor, n int) (Result, error) {
	res, _, err := e.SolveDetailed(procs, n)
	return res, err
}

// SolveDetailed is Solve, additionally reporting how the answer was
// produced. The engine mutex is held only for cache bookkeeping: the
// DP itself runs unlocked, so concurrent solves of distinct signatures
// proceed in parallel, while callers requesting an identical
// (signature, item count) pair wait on the in-flight leader and share
// its result bit-for-bit.
func (e *Engine) SolveDetailed(procs []Processor, n int) (Result, SolveInfo, error) {
	if PlatformClass(procs) == cost.General {
		e.count(func(s *EngineStats) { s.Fallbacks++ })
		res, err := Algorithm1(procs, n)
		return res, SolveInfo{Source: SourceFallback}, err
	}
	sig, ok := signature(procs)
	if !ok {
		e.count(func(s *EngineStats) { s.Fallbacks++ })
		res, err := Algorithm2(procs, n)
		return res, SolveInfo{Source: SourceFallback}, err
	}
	if e.policy != PolicyExact && n >= e.coarseMin {
		return e.solveCoarseDetailed(procs, n, sig)
	}
	key := sig + "#" + strconv.Itoa(n)

	e.mu.Lock()
	if pl := e.cache.Get(sig); pl != nil && pl.n >= n {
		e.stats.CacheHits++
		res, err := pl.Lookup(n, 0)
		e.mu.Unlock()
		return res, SolveInfo{Source: SourceCacheHit, Signature: sig}, err
	}
	if f, ok := e.flights[key]; ok {
		// An identical solve is in flight: wait for the leader instead
		// of duplicating a multi-second DP. Identical inputs fail
		// identically, so sharing the leader's error is exact too.
		e.stats.Coalesced++
		e.mu.Unlock()
		<-f.done
		info := f.info
		info.Coalesced = true
		return f.res, info, f.err
	}
	// Leader: register the flight and pick the warm-start base under
	// the lock, pinning it so a concurrent eviction cannot recycle its
	// row buffers while the resolve reads them.
	f := &flight{done: make(chan struct{})}
	e.flights[key] = f
	base := e.cache.bestSuffix(fingerprints(procs), n)
	if base != nil {
		base.refs++
		base.pinRows()
	}
	e.mu.Unlock()

	var pl *Plan
	var err error
	source := SourceCold
	if base != nil {
		if derived, rerr := base.resolve(e.tabs, n, procs, e.workers); rerr == nil {
			pl, source = derived, SourceResolve
		}
	}
	if pl == nil {
		pl, err = solvePlan(e.tabs, procs, n, e.workers)
	}

	e.mu.Lock()
	if base != nil {
		e.unpinLocked(base)
	}
	var res Result
	if err == nil {
		if source == SourceResolve {
			e.stats.Resolves++
		} else {
			e.stats.ColdSolves++
		}
		e.cache.Put(sig, pl)
		res, err = pl.Lookup(n, 0)
	}
	f.res, f.info, f.err = res, SolveInfo{Source: source, Signature: sig}, err
	delete(e.flights, key)
	e.mu.Unlock()
	close(f.done)
	return f.res, f.info, f.err
}

// solveCoarseDetailed answers a large solve under a coarse policy.
// Coarse results never enter the plan cache — its rows must stay exact
// for warm starts and suffix lookups — so they are memoized in a side
// table keyed by signature, item count, granularity and policy, and
// identical in-flight coarse solves coalesce like exact ones.
func (e *Engine) solveCoarseDetailed(procs []Processor, n int, sig string) (Result, SolveInfo, error) {
	key := sig + "#" + strconv.Itoa(n) + "#g" + strconv.Itoa(e.gran) + "#" + e.policy.String()
	e.mu.Lock()
	if cr, ok := e.coarseCache[key]; ok {
		e.stats.CacheHits++
		e.mu.Unlock()
		return cr.Result, e.coarseInfo(cr, sig, SourceCacheHit), nil
	}
	if f, ok := e.flights[key]; ok {
		e.stats.Coalesced++
		e.mu.Unlock()
		<-f.done
		info := f.info
		info.Coalesced = true
		return f.res, info, f.err
	}
	f := &flight{done: make(chan struct{})}
	e.flights[key] = f
	e.mu.Unlock()

	cr, err := SolveCoarseOpt(procs, n, e.gran, CoarseOptions{SkipRefine: e.policy == PolicyCoarseOnly})

	e.mu.Lock()
	var info SolveInfo
	if err == nil {
		e.stats.CoarseSolves++
		e.coarsePutLocked(key, cr)
		info = e.coarseInfo(cr, sig, SourceCoarse)
	}
	f.res, f.info, f.err = cr.Result, info, err
	delete(e.flights, key)
	e.mu.Unlock()
	close(f.done)
	return f.res, f.info, f.err
}

// coarseInfo translates a CoarseResult into the SolveInfo reported to
// callers. A coarse solve that fell back to the exact DP reports
// PolicyExact with a zero band, so consumers gating on exactness (like
// the daemon's durable store) see the truth rather than the knob.
func (e *Engine) coarseInfo(cr CoarseResult, sig string, src SolveSource) SolveInfo {
	info := SolveInfo{Source: src, Signature: sig}
	if cr.Exact {
		info.Policy = PolicyExact
		return info
	}
	info.Policy = e.policy
	info.Granularity = cr.Granularity
	info.Bound = cr.Band
	info.LowerBound = cr.LowerBound
	return info
}

// coarsePutLocked memoizes a coarse result, evicting in FIFO order
// once over capacity. Callers must hold e.mu.
func (e *Engine) coarsePutLocked(key string, cr CoarseResult) {
	if _, ok := e.coarseCache[key]; !ok {
		e.coarseOrder = append(e.coarseOrder, key)
		for len(e.coarseOrder) > e.coarseCap {
			evict := e.coarseOrder[0]
			e.coarseOrder = e.coarseOrder[1:]
			delete(e.coarseCache, evict)
		}
	}
	e.coarseCache[key] = cr
}

// unpinLocked drops one pin from a plan used as a warm-start base,
// freeing its rows if the cache evicted it while the resolve ran.
// Callers must hold e.mu.
func (e *Engine) unpinLocked(pl *Plan) {
	pl.refs--
	if pl.refs == 0 && pl.zombie {
		pl.freeRows()
	}
}

func (e *Engine) count(f func(*EngineStats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}

// PlanCache is a bounded LRU cache of retained plans keyed by the
// canonical platform signature (the joined per-processor cost
// fingerprints). Recency is tracked structurally — a move-to-front
// list — so the cache needs no clock, which keeps it usable inside the
// simulated-time runtime. Not safe for concurrent use; the Engine
// serializes access.
type PlanCache struct {
	capacity int
	ll       *list.List // front = most recently used; element values are *cacheEntry
	byKey    map[string]*list.Element
}

type cacheEntry struct {
	key  string
	plan *Plan
}

// NewPlanCache returns a cache holding up to capacity plans (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{capacity: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int { return c.ll.Len() }

// Get returns the plan cached under sig, bumping its recency, or nil.
func (c *PlanCache) Get(sig string) *Plan {
	el, ok := c.byKey[sig]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).plan
}

// Put caches pl under sig as the most recent entry, evicting the least
// recently used plan if the cache is full. Evicted (or replaced) plans
// have their row buffers recycled; rows borrowed by a still-cached
// derived plan are left alone (see planRow.lent).
func (c *PlanCache) Put(sig string, pl *Plan) {
	if el, ok := c.byKey[sig]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.plan != pl {
			ent.plan.release()
			ent.plan = pl
		}
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[sig] = c.ll.PushFront(&cacheEntry{key: sig, plan: pl})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.byKey, ent.key)
		ent.plan.release()
	}
}

// bestSuffix returns the cached plan sharing the longest non-empty
// cost-fingerprint suffix with fps, restricted to plans wide enough to
// answer n items (resolve reuses suffix rows verbatim, so they must
// cover the requested width). Ties go to the more recently used plan.
func (c *PlanCache) bestSuffix(fps []string, n int) *Plan {
	var best *Plan
	bestT := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		pl := el.Value.(*cacheEntry).plan
		if pl.n < n {
			continue
		}
		t := commonFPSuffix(pl.fps, fps)
		if t > bestT {
			best, bestT = pl, t
		}
	}
	return best
}

// commonFPSuffix counts matching trailing fingerprints, stopping at
// opaque ("") entries.
func commonFPSuffix(a, b []string) int {
	t := 0
	for t < len(a) && t < len(b) {
		fp := b[len(b)-1-t]
		if fp == "" || fp != a[len(a)-1-t] {
			break
		}
		t++
	}
	return t
}
