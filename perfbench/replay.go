package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/store"
)

// tracedRun is what a traced run hands to traceLayers.
type tracedRun struct {
	srv *serve.Stats // traced phase's daemon counters; nil for the library workload
	eng core.EngineStats
	// untraced is the untraced phase's runtime cost over untracedOps
	// plans; rates are plans per second of each phase.
	untraced     memResult
	untracedOps  int
	untracedRate float64
	tracedRate   float64
	bandRel      float64
	// entries and plats are the run's own plans and platforms, replayed
	// through the store and the platform layer.
	entries []store.Entry
	plats   [][]byte
}

// traceLayers computes every per-layer metric of a traced run and
// writes its spans to .bench_build/spans/.
func traceLayers(cfg config, tr *tracer, run tracedRun, dir string) ([]metric, error) {
	spans := tr.snapshot()
	out := spanLayers(spans)
	out = append(out, counterLayers(run.srv, run.eng)...)
	out = append(out, metric{"core.coarse_band_rel", run.bandRel, "ratio"})
	st, err := replayStore(filepath.Join(dir, "replay"), run.entries)
	if err != nil {
		return nil, err
	}
	out = append(out, st...)
	pl, err := replayPlatforms(run.plats)
	if err != nil {
		return nil, err
	}
	out = append(out, pl...)
	out = append(out, runtimeLayers(run.untraced, run.untracedOps)...)
	out = append(out, metric{"trace.overhead_frac", 1 - run.tracedRate/run.untracedRate, "ratio"})
	path := cfg.workDir("spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return out, nil
}

// getPasses is how often the Get replay reads every entry; single Gets
// take about a microsecond, so one pass is too few samples.
const getPasses = 20

// replayStore appends the run's entries into a fresh WAL through
// store.Append (one fsync each), then reads each back through
// store.Get, timing both.
func replayStore(dir string, entries []store.Entry) ([]metric, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(filepath.Join(dir, "replay.wal"))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var appendMs, getUs []float64
	for _, e := range entries {
		t0 := time.Now()
		err := st.Append(e)
		appendMs = append(appendMs, ms(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("replay append: %w", err)
		}
	}
	for pass := 0; pass < getPasses; pass++ {
		for _, e := range entries {
			t0 := time.Now()
			got, ok := st.Get(e.Sig, e.Items)
			getUs = append(getUs, float64(time.Since(t0))/1e3)
			if !ok || got.Makespan != e.Makespan {
				return nil, fmt.Errorf("replay get: entry (%d items) lost", e.Items)
			}
		}
	}
	size, err := st.Size()
	if err != nil {
		return nil, err
	}
	return []metric{
		{"store.append_ms_p50", median(appendMs), "ms"},
		{"store.get_us_p50", median(getUs), "us"},
		{"store.records", float64(st.Records()), "count"},
		{"store.wal_bytes", float64(size), "bytes"},
	}, nil
}

// flattenPasses repeats the platform replay so the medians rest on
// enough samples even for a single platform.
const flattenPasses = 50

// replayPlatforms times platform.Parse + ProcessorsOrdered (flatten)
// and core.PlatformSignature over the run's platform JSON.
func replayPlatforms(plats [][]byte) ([]metric, error) {
	var flat, sig []float64
	for pass := 0; pass < flattenPasses; pass++ {
		for _, b := range plats {
			t0 := time.Now()
			p, err := platform.Parse(b)
			if err != nil {
				return nil, err
			}
			procs, err := p.ProcessorsOrdered(platform.OrderDescendingBandwidth)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			if _, ok := core.PlatformSignature(procs); !ok {
				return nil, fmt.Errorf("platform %s has no signature", p.Name)
			}
			flat = append(flat, float64(t1.Sub(t0))/1e3)
			sig = append(sig, float64(time.Since(t1))/1e3)
		}
	}
	return []metric{
		{"platform.flatten_us_p50", median(flat), "us"},
		{"core.signature_us_p50", median(sig), "us"},
	}, nil
}
