package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

// The load is sized for a 2-CPU host: two closed-loop clients over two
// keep-alive connections, two daemon workers, two engine workers.
const (
	clients       = 2
	daemonWorkers = 2
	engineWorkers = 2
	// maxRetries bounds the 503 retries of one request before it
	// counts as failed.
	maxRetries = 100
)

// stack is one daemon: engine, WAL-backed store and server behind a
// loopback listener, plus the client that talks to it.
type stack struct {
	dir    string
	st     *store.Store
	srv    *serve.Server
	ts     *httptest.Server
	tp     *http.Transport
	client *http.Client
	url    string
}

// startStack opens a fresh WAL in dir and starts the daemon. With a
// tracer the handler is wrapped; it records only while the tracer is
// on.
func startStack(dir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, _, err := store.Open(filepath.Join(dir, "plans.wal"))
	if err != nil {
		return nil, err
	}
	eng := core.NewEngineConfig(core.EngineConfig{Workers: engineWorkers})
	srv := serve.NewServer(serve.Config{Engine: eng, Store: st, Workers: daemonWorkers})
	var h http.Handler = srv
	if tr != nil {
		h = tracedHandler{next: srv, tr: tr}
	}
	ts := httptest.NewServer(h)
	tp := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	return &stack{
		dir: dir, st: st, srv: srv, ts: ts, tp: tp,
		client: &http.Client{Transport: tp},
		url:    ts.URL + "/v1/plan",
	}, nil
}

// close stops the listener, drains the daemon, closes the WAL and
// removes the stack's directory.
func (s *stack) close() error {
	s.tp.CloseIdleConnections()
	s.ts.Close()
	s.srv.Drain()
	err := s.st.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// do posts one plan request, retrying after 503 sheds, and reads the
// final body into buf. Traced, it records the client span: send to
// fully read body, retries included.
func (s *stack) do(body []byte, buf *bytes.Buffer, tr *tracer, req int64) (status, retries int, err error) {
	traced := tr.active()
	var sp span
	if traced {
		sp = span{ID: tr.newID(), Req: req, Name: spanClient, Start: tr.now()}
	}
	for {
		hreq, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
		if err != nil {
			return 0, retries, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		if traced {
			hreq.Header.Set(hdrReq, strconv.FormatInt(req, 10))
			hreq.Header.Set(hdrSpan, strconv.FormatInt(sp.ID, 10))
		}
		resp, err := s.client.Do(hreq)
		if err != nil {
			return 0, retries, err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, retries, err
		}
		if resp.StatusCode == http.StatusServiceUnavailable && retries < maxRetries {
			retries++
			time.Sleep(time.Millisecond)
			continue
		}
		if traced {
			sp.End = tr.now()
			tr.record(sp)
		}
		return resp.StatusCode, retries, nil
	}
}

// sample is one verified 200: when it completed, measured from the
// start of its phase, and its latency in ms.
type sample struct {
	at  time.Duration
	lat float64
}

// clientStats is one client's share of a phase.
type clientStats struct {
	samples   []sample
	attempted int
	failed    int
	retries   int
	errs      []string
}

func (c *clientStats) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// servePhase is one measured phase against a stack, reduced to numbers:
// the latency samples are dropped before the live-heap probe, so that
// peak_heap_mb is the daemon's and not the benchmark's.
type servePhase struct {
	wall  time.Duration
	plans int // verified 200s
	// win holds the medians over the phase's whole one-second windows;
	// runP50 and runP99 are percentiles over all of its samples.
	win            windowStats
	windows        int
	runP50, runP99 float64
	attempted      int
	failed         int
	retries        int
	errs           []string
	before, after  serve.Stats
	mem            memResult
}

// windowLen is the length of a serve phase's windows.
const windowLen = time.Second

// runServePhase runs the closed-loop clients for d and merges their
// results. loop is one client's body; it must stop sending once the
// deadline has passed and time its samples from start.
func runServePhase(s *stack, d time.Duration, loop func(c int, start, deadline time.Time) clientStats) servePhase {
	ph := servePhase{before: s.srv.Stats()}
	mem := readMem()
	start := time.Now()
	deadline := start.Add(d)
	res := make([]clientStats, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			res[c] = loop(c, start, deadline)
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.mem = memDelta(mem)
	ph.after = s.srv.Stats()
	for _, r := range res {
		ph.attempted += r.attempted
		ph.failed += r.failed
		ph.retries += r.retries
		ph.errs = append(ph.errs, r.errs...)
	}
	ph.reduce(res, d)
	res = nil // the samples are not counted in the probe
	// The daemon's live data only grows during a phase (plans, WAL
	// index, cost tables), so its peak is what is live at the end.
	ph.mem.peakLive = liveHeap()
	return ph
}

// reduce turns the clients' samples into the phase's latency and rate
// figures.
func (ph *servePhase) reduce(res []clientStats, d time.Duration) {
	wlen := min(windowLen, d)
	windows := make([]window, max(int(d/windowLen), 1))
	for i := range windows {
		windows[i].secs = wlen.Seconds()
	}
	var lat []float64
	for _, r := range res {
		for _, smp := range r.samples {
			lat = append(lat, smp.lat)
			// Answers completed after the last whole window are left
			// out of the windows.
			if w := int(smp.at / wlen); w < len(windows) {
				windows[w].lat = append(windows[w].lat, smp.lat)
			}
		}
	}
	sort.Float64s(lat)
	ph.plans = len(lat)
	ph.win, ph.windows = summarize(windows), len(windows)
	ph.runP50, ph.runP99 = percentile(lat, p50), percentile(lat, p99)
}

// rps is verified plans per second of wall time.
func (ph servePhase) rps() float64 { return float64(ph.plans) / ph.wall.Seconds() }

// endToEnd is the registered end-to-end set of a serve phase: rate and
// latencies are medians over its one-second windows. Every answer is an
// exact plan, so the certified optimality ratio is 1.
func (ph servePhase) endToEnd(setup float64) []metric {
	return []metric{
		{"setup_s", setup, "s"},
		{"plan_rps", ph.win.rate, "1/s"},
		{"lat_p50_ms", ph.win.p50, "ms"},
		{"lat_p99_ms", ph.win.p99, "ms"},
		{"peak_heap_mb", float64(ph.mem.peakLive) / 1e6, "MB"},
		{"opt_ratio_min", 1, "ratio"},
	}
}

// extras are an untraced phase's unregistered numbers: failure share,
// whole-run rate and percentiles, sample counts and the tail rule,
// which every window's p99 must meet.
func (ph servePhase) extras() []metric {
	tail := 0.0
	if ph.win.minBeyond >= 10 {
		tail = 1
	}
	return []metric{
		{"failed_frac", float64(ph.failed) / float64(max(ph.attempted, 1)), "ratio"},
		{"run_plan_rps", ph.rps(), "1/s"},
		{"run_lat_p50_ms", ph.runP50, "ms"},
		{"run_lat_p99_ms", ph.runP99, "ms"},
		{"lat_samples", float64(ph.plans), "count"},
		{"windows", float64(ph.windows), "count"},
		{"lat_p99_beyond_min", float64(ph.win.minBeyond), "count"},
		{"lat_p99_supported", tail, "bool"},
		{"retries_503", float64(ph.retries), "count"},
		{"wall_s", ph.wall.Seconds(), "s"},
	}
}

// statsDelta subtracts the cumulative counters of two snapshots.
func statsDelta(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		Requests:      b.Requests - a.Requests,
		Planned:       b.Planned - a.Planned,
		StoreHits:     b.StoreHits - a.StoreHits,
		ShedQueueFull: b.ShedQueueFull - a.ShedQueueFull,
		ShedExpired:   b.ShedExpired - a.ShedExpired,
		ShedDraining:  b.ShedDraining - a.ShedDraining,
		BadRequests:   b.BadRequests - a.BadRequests,
		SolveErrors:   b.SolveErrors - a.SolveErrors,
		PersistErrors: b.PersistErrors - a.PersistErrors,
		Abandoned:     b.Abandoned - a.Abandoned,
		Engine:        engineDelta(a.Engine, b.Engine),
	}
}

func engineDelta(a, b core.EngineStats) core.EngineStats {
	return core.EngineStats{
		ColdSolves:   b.ColdSolves - a.ColdSolves,
		Resolves:     b.Resolves - a.Resolves,
		CacheHits:    b.CacheHits - a.CacheHits,
		Fallbacks:    b.Fallbacks - a.Fallbacks,
		Coalesced:    b.Coalesced - a.Coalesced,
		CoarseSolves: b.CoarseSolves - a.CoarseSolves,
	}
}

func engineAnswers(e core.EngineStats) int {
	return e.ColdSolves + e.Resolves + e.CacheHits + e.Fallbacks + e.Coalesced + e.CoarseSolves
}

// traceSlices is how many untraced/traced pairs a traced run
// alternates through, so both kinds see the same stretch of the input
// stream and of the daemon's cache growth.
const traceSlices = 4

// serveRun is a serve workload's measurement: one untraced phase, or
// for a traced run alternating untraced and traced slices merged into
// one phase each.
type serveRun struct {
	untraced, traced servePhase  // traced is empty for an untraced run
	delta            serve.Stats // daemon counters over the whole run
}

func measureServe(cfg config, tr *tracer, phase func(d time.Duration) servePhase) serveRun {
	if !cfg.trace {
		p := phase(cfg.phaseLen())
		return serveRun{untraced: p, delta: statsDelta(p.before, p.after)}
	}
	var r serveRun
	var first, last servePhase
	for i := 0; i < traceSlices; i++ {
		u := phase(cfg.phaseLen() / traceSlices)
		tr.start()
		t := phase(cfg.phaseLen() / traceSlices)
		tr.stop()
		if i == 0 {
			first = u
		}
		last = t
		r.untraced = mergePhase(r.untraced, u)
		r.traced = mergePhase(r.traced, t)
	}
	r.delta = statsDelta(first.before, last.after)
	return r
}

// mergePhase folds slice b's counts into the accumulated phase a; the
// traced run reports no latencies, so those are not merged.
func mergePhase(a, b servePhase) servePhase {
	a.wall += b.wall
	a.plans += b.plans
	a.attempted += b.attempted
	a.failed += b.failed
	a.retries += b.retries
	a.errs = append(a.errs, b.errs...)
	a.mem.allocBytes += b.mem.allocBytes
	a.mem.gcCycles += b.mem.gcCycles
	a.mem.peakLive = max(a.mem.peakLive, b.mem.peakLive)
	return a
}

func (r serveRun) attempted() int { return r.untraced.attempted + r.traced.attempted }
func (r serveRun) failed() int    { return r.untraced.failed + r.traced.failed }
func (r serveRun) errs() []string {
	return append(append([]string(nil), r.untraced.errs...), r.traced.errs...)
}

func (r serveRun) hitRatio() float64 {
	return float64(r.delta.StoreHits) / float64(max(r.delta.Requests, 1))
}

// traceExtras are the traced run's unregistered numbers.
func (r serveRun) traceExtras() []metric {
	return []metric{
		{"lat_samples", float64(r.traced.plans), "count"},
		{"untraced_plan_rps", r.untraced.rps(), "1/s"},
		{"traced_plan_rps", r.traced.rps(), "1/s"},
	}
}

// counterLayers are the per-layer counts: serve counters (zero for the
// library workload, srv == nil) and engine counters.
func counterLayers(srv *serve.Stats, eng core.EngineStats) []metric {
	var s serve.Stats
	hit := 0.0
	if srv != nil {
		s = *srv
		hit = float64(s.StoreHits) / float64(max(s.Requests, 1))
	}
	reuse := 0.0
	if n := engineAnswers(eng); n > 0 {
		reuse = float64(eng.CacheHits+eng.Resolves+eng.Coalesced) / float64(n)
	}
	return []metric{
		{"serve.store_hit_ratio", hit, "ratio"},
		{"serve.shed", float64(s.ShedQueueFull + s.ShedExpired + s.ShedDraining), "count"},
		{"serve.abandoned", float64(s.Abandoned), "count"},
		{"serve.solve_errors", float64(s.SolveErrors), "count"},
		{"serve.persist_errors", float64(s.PersistErrors), "count"},
		{"core.cold_solves", float64(eng.ColdSolves), "count"},
		{"core.resolves", float64(eng.Resolves), "count"},
		{"core.cache_hits", float64(eng.CacheHits), "count"},
		{"core.coalesced", float64(eng.Coalesced), "count"},
		{"core.coarse_solves", float64(eng.CoarseSolves), "count"},
		{"core.reuse_ratio", reuse, "ratio"},
	}
}

// runtimeLayers are the Go runtime's costs over an untraced phase.
func runtimeLayers(m memResult, ops int) []metric {
	return []metric{
		{"runtime.alloc_kb_per_op", float64(m.allocBytes) / 1e3 / float64(max(ops, 1)), "KB"},
		{"runtime.gc_cycles", float64(m.gcCycles), "count"},
	}
}

// reqIDs numbers requests across clients and phases.
var reqIDs atomic.Int64

// medianSetup runs setup the given number of times, keeps the last
// result, releases the others, and returns the median set-up time.
func medianSetup[T any](times int, setup func(i int) (T, error), release func(T) error) (T, float64, error) {
	var keep T
	var secs []float64
	for i := 0; i < times; i++ {
		t0 := time.Now()
		v, err := setup(i)
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return keep, 0, err
		}
		if i < times-1 {
			if err := release(v); err != nil {
				return keep, 0, err
			}
			continue
		}
		keep = v
	}
	return keep, median(secs), nil
}

// parallel runs f(0..n-1) on at most workers goroutines and returns the
// first error.
func parallel(n, workers int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sameResult reports whether two results are bit-identical.
func sameResult(a core.Result, dist []int, makespan float64) bool {
	if a.Makespan != makespan || len(a.Distribution) != len(dist) {
		return false
	}
	for i := range dist {
		if a.Distribution[i] != dist[i] {
			return false
		}
	}
	return true
}
