package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/store"
)

// serve-hot replays the BENCH_serve key set: 24 seeded two-site grids
// crossed with four item counts. Set-up solves and posts every key once,
// so the measured Zipf(1.2) stream is answered from the WAL-backed store
// and the engine does no work.
const (
	hotPlatforms = 24
	hotZipfS     = 1.2
)

var hotItems = []int{2000, 5000, 11000, 30000}

// planKey is one distinct (platform, items) request.
type planKey struct {
	plat  []byte // platform JSON
	body  []byte // POST /v1/plan body
	procs []core.Processor
	sig   string
	items int
}

// newPlanKey orders the platform the way the daemon does (descending
// bandwidth) and renders the request body.
func newPlanKey(p platform.Platform, items int) (planKey, error) {
	procs, err := p.ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		return planKey{}, err
	}
	sig, ok := core.PlatformSignature(procs)
	if !ok {
		return planKey{}, fmt.Errorf("platform %s has no signature", p.Name)
	}
	plat, err := json.Marshal(p)
	if err != nil {
		return planKey{}, err
	}
	body, err := json.Marshal(serve.PlanRequest{Platform: p, Items: items})
	if err != nil {
		return planKey{}, err
	}
	return planKey{plat: plat, body: body, procs: procs, sig: sig, items: items}, nil
}

// hotKeySeed is the seed BENCH_serve.json's key set was drawn with.
// The key set is fixed so that every run serves the same platforms;
// the run's seed draws the request streams over it.
const hotKeySeed = 20260808

// hotKeys generates the 96 distinct keys of the BENCH_serve key set.
func hotKeys() ([]planKey, error) {
	rng := rand.New(rand.NewSource(hotKeySeed))
	keys := make([]planKey, 0, hotPlatforms*len(hotItems))
	for i := 0; i < hotPlatforms; i++ {
		p := platform.RandomTwoSite(rng, 1+rng.Intn(3), 1+rng.Intn(3))
		p.Name = fmt.Sprintf("%s-%d", p.Name, i)
		for _, n := range hotItems {
			k, err := newPlanKey(p, n)
			if err != nil {
				return nil, err
			}
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// streamSeed derives a client's stream seed from the run seed.
func streamSeed(seed int64, client int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(client+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x)
}

// hotStream is a client's endless Zipf(1.2) key stream.
func hotStream(seed int64, client, keys int) func() int {
	z := rand.NewZipf(rand.New(rand.NewSource(streamSeed(seed, client))), hotZipfS, 1, uint64(keys-1))
	return func() int { return int(z.Uint64()) }
}

// hotState is one set-up serve-hot daemon with its references.
type hotState struct {
	keys  []planKey
	refs  []core.Result
	want  [][]byte // exact byte form of each key's store answer
	stack *stack
}

func hotSetup(cfg config, dir string, tr *tracer) (*hotState, error) {
	keys, err := hotKeys()
	if err != nil {
		return nil, err
	}
	h := &hotState{keys: keys, refs: make([]core.Result, len(keys)), want: make([][]byte, len(keys))}
	if err := parallel(len(keys), engineWorkers, func(i int) error {
		r, err := core.Algorithm2(keys[i].procs, keys[i].items)
		h.refs[i] = r
		return err
	}); err != nil {
		return nil, err
	}
	for i, k := range keys {
		b, err := json.Marshal(serve.PlanResponse{
			Distribution: h.refs[i].Distribution,
			Makespan:     h.refs[i].Makespan,
			Processors:   procNames(k.procs),
			Source:       "store",
			Signature:    k.sig,
		})
		if err != nil {
			return nil, err
		}
		h.want[i] = append(b, '\n')
	}
	if h.stack, err = startStack(dir, tr); err != nil {
		return nil, err
	}
	// Pre-warm: one post per key puts every plan in the WAL.
	var buf bytes.Buffer
	for i, k := range keys {
		status, _, err := h.stack.do(k.body, &buf, nil, 0)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("pre-warm key %d: status %d: %s", i, status, buf.Bytes())
		}
		if err := h.verify(i, buf.Bytes()); err != nil {
			return nil, fmt.Errorf("pre-warm key %d: %w", i, err)
		}
	}
	return h, nil
}

func procNames(procs []core.Processor) []string {
	names := make([]string, len(procs))
	for i, p := range procs {
		names[i] = p.Name
	}
	return names
}

// verify checks a 200 body against key i's fresh Algorithm 2 result:
// byte equality with the exact store answer, or else a decoded
// bit-for-bit comparison of distribution and makespan.
func (h *hotState) verify(i int, body []byte) error {
	if bytes.Equal(body, h.want[i]) {
		return nil
	}
	var pr serve.PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if !sameResult(h.refs[i], pr.Distribution, pr.Makespan) || pr.Policy != "" {
		return fmt.Errorf("answer %v/%v differs from fresh Algorithm2 %v/%v", pr.Distribution, pr.Makespan, h.refs[i].Distribution, h.refs[i].Makespan)
	}
	return nil
}

// phase drives both clients over their Zipf streams for d.
func (h *hotState) phase(d time.Duration, streams []func() int, tr *tracer) servePhase {
	return runServePhase(h.stack, d, func(c int, start, deadline time.Time) clientStats {
		var cs clientStats
		var buf bytes.Buffer
		next := streams[c]
		for time.Now().Before(deadline) {
			i := next()
			req := reqIDs.Add(1)
			cs.attempted++
			t0 := time.Now()
			status, retries, err := h.stack.do(h.keys[i].body, &buf, tr, req)
			t1 := time.Now()
			cs.retries += retries
			switch {
			case err != nil:
				cs.fail("key %d: %v", i, err)
			case status != http.StatusOK:
				cs.fail("key %d: status %d", i, status)
			default:
				if err := h.verify(i, buf.Bytes()); err != nil {
					cs.fail("key %d: %v", i, err)
					continue
				}
				cs.samples = append(cs.samples, sample{at: t1.Sub(start), lat: ms(t1.Sub(t0))})
			}
		}
		return cs
	})
}

func (h *hotState) release() error { return h.stack.close() }

func runServeHot(cfg config) (*report, error) {
	runDir := cfg.workDir("run", "serve-hot-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(runDir)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	h, setup, err := medianSetup(setupRepeats(cfg), func(i int) (*hotState, error) {
		return hotSetup(cfg, fmt.Sprintf("%s/stack%d", runDir, i), tr)
	}, (*hotState).release)
	if err != nil {
		return nil, err
	}
	defer h.release()
	streams := make([]func() int, clients)
	for c := range streams {
		streams[c] = hotStream(cfg.seed, c, len(h.keys))
	}
	rep := &report{params: map[string]any{
		"platforms": hotPlatforms, "key_seed": hotKeySeed, "items": hotItems, "keys": len(h.keys), "zipf_s": hotZipfS,
		"clients": clients, "connections": clients, "daemon_workers": daemonWorkers, "engine_workers": engineWorkers,
		"loop": "closed", "setup_repeats": setupRepeats(cfg),
	}}

	run := measureServe(cfg, tr, func(d time.Duration) servePhase { return h.phase(d, streams, tr) })
	engineWork := engineAnswers(run.delta.Engine)
	rep.attempted, rep.failed = run.attempted(), run.failed()
	rep.check("setup: pre-warm answers bit-identical to fresh Algorithm2", len(h.keys), 0)
	rep.check("every 200 bit-identical to fresh Algorithm2", rep.attempted, rep.failed)
	rep.guard(fmt.Sprintf("store_hit_ratio %.4f >= 0.99", run.hitRatio()), run.hitRatio() >= 0.99)
	rep.guard(fmt.Sprintf("engine solves %d == 0", engineWork), engineWork == 0)
	for _, e := range run.errs() {
		fmt.Fprintln(os.Stderr, "serve-hot:", e)
	}

	if !cfg.trace {
		rep.metrics = run.untraced.endToEnd(setup)
		rep.extra = run.untraced.extras()
		return rep, nil
	}
	entries := make([]store.Entry, len(h.keys))
	plats := make([][]byte, 0, hotPlatforms)
	for i, k := range h.keys {
		entries[i] = store.Entry{Sig: k.sig, Items: k.items, Makespan: h.refs[i].Makespan, Dist: h.refs[i].Distribution}
		if i%len(hotItems) == 0 {
			plats = append(plats, k.plat)
		}
	}
	layers, err := traceLayers(cfg, tr, tracedRun{
		srv: &run.delta, eng: run.delta.Engine,
		untraced: run.untraced.mem, untracedOps: run.untraced.plans,
		untracedRate: run.untraced.rps(), tracedRate: run.traced.rps(),
		entries: entries, plats: plats,
	}, runDir)
	if err != nil {
		return nil, err
	}
	rep.metrics = layers
	rep.extra = run.traceExtras()
	return rep, nil
}
