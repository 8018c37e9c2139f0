package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Span names, one per layer boundary the benchmark wraps.
const (
	spanClient  = "client"        // send to fully read body, retries included
	spanHandler = "serve.handler" // Server.ServeHTTP
	spanSolve   = "core.solve"    // Engine.SolveDetailed
	spanRepeat  = "table1.repeat" // one pass of the Table 1 sequence
)

// Headers the traced client sends so the handler wrapper can parent its
// span; the daemon ignores them.
const (
	hdrReq  = "X-Bench-Request"
	hdrSpan = "X-Bench-Span"
)

// span is one timed call across a layer boundary. Times are
// nanoseconds since the tracer's epoch; Parent and Req are 0 when
// unknown.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Source is the engine's SolveInfo.Source for solve spans.
	Source string `json:"source,omitempty"`
	// Cells is p·n for solve spans: the DP table a cold solve fills.
	Cells int64 `json:"cells,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while on; they are written out when the
// run ends. Recording is off until start is called, so the same
// wrappers serve an untraced phase at the cost of one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start()       { t.on.Store(true) }
func (t *tracer) stop()        { t.on.Store(false) }
func (t *tracer) active() bool { return t != nil && t.on.Load() }
func (t *tracer) now() int64   { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// tracedHandler times Server.ServeHTTP. Its span's parent is the client
// span named in the request headers.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.active() {
		h.next.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	h.tr.record(span{ID: h.tr.newID(), Parent: parent, Req: req, Name: spanHandler, Start: start, End: h.tr.now()})
}

// timedSolve is a direct (library) engine call recorded as a solve span
// under parent.
func (t *tracer) timedSolve(eng *core.Engine, procs []core.Processor, n int, parent, req int64) (core.Result, core.SolveInfo, time.Duration, error) {
	traced := t.active()
	var start int64
	if traced {
		start = t.now()
	}
	t0 := time.Now()
	res, info, err := eng.SolveDetailed(procs, n)
	d := time.Since(t0)
	if traced {
		t.record(span{
			ID: t.newID(), Parent: parent, Req: req, Name: spanSolve, Start: start, End: t.now(),
			Source: info.Source.String(), Cells: int64(len(procs)) * int64(n),
		})
	}
	return res, info, d, err
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may nest, overlap each other, or stick
// out of the parent; only their union inside the parent is subtracted.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// children indexes spans by parent ID.
func children(spans []span) map[int64][]span {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// writeSpans writes the spans as JSON lines, one span a line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// spanLayers reduces a traced phase's spans to the per-layer timing
// metrics. Timings are p50s (p99 for the handler) in the unit the
// metric name carries; layers with no spans report 0.
func spanLayers(spans []span) []metric {
	kids := children(spans)
	var handler, handlerSelf, client []float64
	solve := map[string][]float64{}
	var coldCells, coldNs int64
	for _, s := range spans {
		switch s.Name {
		case spanClient:
			client = append(client, float64(selfTime(s, kids[s.ID]))/1e6)
		case spanHandler:
			handler = append(handler, float64(s.dur())/1e6)
			handlerSelf = append(handlerSelf, float64(selfTime(s, kids[s.ID]))/1e6)
		case spanSolve:
			solve[s.Source] = append(solve[s.Source], float64(s.dur())/1e6)
			if s.Source == "cold" {
				coldCells += s.Cells
				coldNs += s.dur()
			}
		}
	}
	sort.Float64s(handler)
	cellsPerS := 0.0
	if coldNs > 0 {
		cellsPerS = float64(coldCells) / (float64(coldNs) / 1e9)
	}
	return []metric{
		{"serve.handler_ms_p50", percentile(handler, p50), "ms"},
		{"serve.handler_ms_p99", percentile(handler, p99), "ms"},
		{"serve.http_ms_p50", median(client), "ms"},
		{"serve.self_ms_p50", median(handlerSelf), "ms"},
		{"core.solve_cold_ms_p50", median(solve["cold"]), "ms"},
		{"core.solve_warm_ms_p50", median(solve["warm"]), "ms"},
		{"core.solve_cache_us_p50", median(solve["cache"]) * 1e3, "us"},
		{"core.solve_coarse_ms_p50", median(solve["coarse"]), "ms"},
		{"core.cold_cells_per_s", cellsPerS, "1/s"},
	}
}
