package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/store"
)

// testPlatform builds a small deterministic two-site platform whose
// cost constants vary with seed, so distinct seeds give distinct
// signatures.
func testPlatform(seed int) platform.Platform {
	return platform.Platform{
		Name: fmt.Sprintf("test-%d", seed),
		Machines: []platform.Machine{
			{Name: "root", CPUs: 1, Beta: 0.010 + 0.001*float64(seed)},
			{Name: "fast", CPUs: 2, Beta: 0.004, Alpha: 1e-5 * float64(1+seed%3)},
			{Name: "slow", CPUs: 1, Beta: 0.016, Alpha: 5e-5 * float64(1+seed%2)},
		},
		Root: "root",
	}
}

func postPlan(t *testing.T, url string, req PlanRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, url, body)
}

// postBody posts a raw POST /v1/plan body and reads the response.
func postBody(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/plan: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodePlan(t *testing.T, data []byte) PlanResponse {
	t.Helper()
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("decode plan response %q: %v", data, err)
	}
	return pr
}

func sum(dist []int) int {
	total := 0
	for _, d := range dist {
		total += d
	}
	return total
}

func TestServePlanHappyPath(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "plans.wal")
	st, _, err := store.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := NewServer(Config{Store: st})
	defer s.Drain()
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 4000
	req := PlanRequest{Platform: testPlatform(1), Items: n}
	resp, body := postPlan(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	pr := decodePlan(t, body)
	if sum(pr.Distribution) != n {
		t.Fatalf("distribution %v sums to %d, want %d", pr.Distribution, sum(pr.Distribution), n)
	}
	if pr.Source != "cold" {
		t.Fatalf("first solve source = %q, want cold", pr.Source)
	}
	if pr.Signature == "" {
		t.Fatal("linear-cost platform must be fingerprintable")
	}
	if len(pr.Processors) != 4 || pr.Processors[len(pr.Processors)-1] != "root" {
		t.Fatalf("processors = %v, want 4 with root last", pr.Processors)
	}
	// Bit-identity with a direct solver call on the same ordering.
	procs, err := req.Platform.ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Algorithm2(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Makespan != want.Makespan {
		t.Fatalf("served makespan %v != direct %v", pr.Makespan, want.Makespan)
	}
	for i := range want.Distribution {
		if pr.Distribution[i] != want.Distribution[i] {
			t.Fatalf("served distribution %v != direct %v", pr.Distribution, want.Distribution)
		}
	}

	// The identical request is now answered from the durable store
	// without touching the engine.
	resp2, body2 := postPlan(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp2.StatusCode)
	}
	pr2 := decodePlan(t, body2)
	if pr2.Source != "store" {
		t.Fatalf("repeat source = %q, want store", pr2.Source)
	}
	if pr2.Makespan != pr.Makespan || sum(pr2.Distribution) != n {
		t.Fatalf("store answer %v/%v differs from solved %v/%v", pr2.Distribution, pr2.Makespan, pr.Distribution, pr.Makespan)
	}

	// A different item count misses the store and resolves warm.
	resp3, body3 := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(1), Items: n / 2})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("smaller-n status = %d", resp3.StatusCode)
	}
	if pr3 := decodePlan(t, body3); pr3.Source != "cache" && pr3.Source != "warm" {
		t.Fatalf("smaller-n source = %q, want cache or warm", pr3.Source)
	}

	stats := s.Stats()
	if stats.Requests != 3 || stats.Planned != 3 || stats.StoreHits != 1 {
		t.Fatalf("stats = %+v, want 3 requests, 3 planned, 1 store hit", stats)
	}
	if stats.StoreEntries != 2 {
		t.Fatalf("store entries = %d, want 2", stats.StoreEntries)
	}
	if stats.Engine.ColdSolves != 1 {
		t.Fatalf("engine cold solves = %d, want 1", stats.Engine.ColdSolves)
	}
}

func TestServeHealthAndStats(t *testing.T) {
	s := NewServer(Config{})
	defer s.Drain()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	resp.Body.Close()
	if stats.QueueCapacity != 64 || stats.Workers != 4 {
		t.Fatalf("defaults = %+v, want queue 64, workers 4", stats)
	}
	if stats.StoreEntries != -1 {
		t.Fatalf("store entries without a store = %d, want -1", stats.StoreEntries)
	}
}

func TestServePlanValidation(t *testing.T) {
	s := NewServer(Config{MaxItems: 1000, MaxBodyBytes: 4096})
	defer s.Drain()
	ts := httptest.NewServer(s)
	defer ts.Close()

	good := testPlatform(0)
	valid := mustBody(t, PlanRequest{Platform: good, Items: 5})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"platform":`, http.StatusBadRequest},
		{"unknown field", `{"platfrom": {}, "items": 5}`, http.StatusBadRequest},
		{"negative items", mustBody(t, PlanRequest{Platform: good, Items: -1}), http.StatusBadRequest},
		{"items over cap", mustBody(t, PlanRequest{Platform: good, Items: 5000}), http.StatusBadRequest},
		{"negative timeout", mustBody(t, PlanRequest{Platform: good, Items: 5, TimeoutMs: -3}), http.StatusBadRequest},
		{"unknown ordering", mustBody(t, PlanRequest{Platform: good, Items: 5, Ordering: "random"}), http.StatusBadRequest},
		{"no machines", `{"platform": {"name": "x"}, "items": 5}`, http.StatusBadRequest},
		{"rootless", `{"platform": {"machines": [{"name": "a", "cpus": 1, "beta": 0.01}]}, "items": 5}`, http.StatusBadRequest},
		// The whole body counts against MaxBodyBytes, not just the part
		// a streaming decoder reads before the object closes.
		{"over body cap", valid + strings.Repeat("x", 8192), http.StatusBadRequest},
		// A body is exactly one request object.
		{"trailing garbage", valid + " garbage", http.StatusBadRequest},
		{"two objects", valid + valid, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan = %d, want 405", resp.StatusCode)
	}

	if got := s.Stats().BadRequests; got != int64(len(cases)) {
		t.Fatalf("BadRequests = %d, want %d", got, len(cases))
	}

	// Trailing JSON whitespace is still part of a valid body.
	resp, err = http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(valid+" \r\n\t"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid body with trailing whitespace = %d, want 200", resp.StatusCode)
	}
}

func mustBody(t *testing.T, req PlanRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestServeOrderings(t *testing.T) {
	s := NewServer(Config{})
	defer s.Drain()
	ts := httptest.NewServer(s)
	defer ts.Close()

	p := testPlatform(2)
	for _, ord := range []string{"", "as-listed", "descending-bandwidth", "ascending-bandwidth"} {
		resp, body := postPlan(t, ts.URL, PlanRequest{Platform: p, Items: 1000, Ordering: ord})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ordering %q: status %d, body %s", ord, resp.StatusCode, body)
		}
		pr := decodePlan(t, body)
		policy := platform.OrderDescendingBandwidth
		switch ord {
		case "as-listed":
			policy = platform.OrderAsListed
		case "ascending-bandwidth":
			policy = platform.OrderAscendingBandwidth
		}
		procs, err := p.ProcessorsOrdered(policy)
		if err != nil {
			t.Fatal(err)
		}
		for i, proc := range procs {
			if pr.Processors[i] != proc.Name {
				t.Fatalf("ordering %q: served order %v, want %v", ord, pr.Processors, procNames(procs))
			}
		}
	}
}

// gatedSolver blocks each solve until released, exposing the admission
// machinery to deterministic tests.
type gatedSolver struct {
	started chan string
	release chan struct{}
}

func (g *gatedSolver) solve(procs []core.Processor, n int) (core.Result, core.SolveInfo, error) {
	g.started <- fmt.Sprintf("n=%d", n)
	<-g.release
	dist := make([]int, len(procs))
	dist[0] = n
	return core.Result{Distribution: dist, Makespan: float64(n)}, core.SolveInfo{Source: core.SourceCold}, nil
}

// TestServeSaturationShedding fills the single worker and the
// one-deep queue, then asserts the next request is shed immediately
// with 503 + Retry-After while the admitted ones still complete.
func TestServeSaturationShedding(t *testing.T) {
	g := &gatedSolver{started: make(chan string, 8), release: make(chan struct{})}
	s := NewServer(Config{Workers: 1, QueueDepth: 1, Solve: g.solve, RetryAfterSeconds: 7})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(i), Items: 100 + i})
			codes[i] = resp.StatusCode
		}(i)
	}
	// Wait until the worker is inside the first solve, then give the
	// queue time to hold the second request.
	<-g.started
	waitFor(t, func() bool { return s.Stats().QueueDepth == 1 })

	resp, body := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(9), Items: 900})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want 7", ra)
	}

	close(g.release)
	<-g.started // second solve begins once the worker frees up
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request %d got %d", i, code)
		}
	}
	st := s.Stats()
	if st.ShedQueueFull != 1 || st.Planned != 2 {
		t.Fatalf("stats = %+v, want 1 shed, 2 planned", st)
	}
	s.Drain()
}

// TestServeQueuedDeadlineShed: a request whose deadline expires while
// queued gets 504 from its handler, and the worker sheds it without
// running the solver.
func TestServeQueuedDeadlineShed(t *testing.T) {
	g := &gatedSolver{started: make(chan string, 8), release: make(chan struct{})}
	s := NewServer(Config{Workers: 1, QueueDepth: 4, Solve: g.solve})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(0), Items: 100})
	}()
	<-g.started // the worker is now pinned

	resp, body := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(1), Items: 200, TimeoutMs: 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-in-queue status = %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timeout response missing Retry-After")
	}

	close(g.release)
	wg.Wait()
	// The worker must shed the expired job rather than solve it: only
	// the first request ever reaches the solver.
	waitFor(t, func() bool { return s.Stats().ShedExpired == 1 })
	select {
	case got := <-g.started:
		t.Fatalf("expired job reached the solver: %s", got)
	default:
	}
	st := s.Stats()
	if st.Abandoned != 1 || st.Planned != 1 {
		t.Fatalf("stats = %+v, want 1 abandoned, 1 planned", st)
	}
	s.Drain()
}

// TestServeDrain exercises the graceful-drain contract: in-flight
// solves finish and are delivered, new requests are rejected, health
// flips to draining, and Drain is idempotent.
func TestServeDrain(t *testing.T) {
	g := &gatedSolver{started: make(chan string, 8), release: make(chan struct{})}
	s := NewServer(Config{Workers: 1, QueueDepth: 4, Solve: g.solve})
	ts := httptest.NewServer(s)
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		resp, _ := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(0), Items: 500})
		inflight <- resp.StatusCode
	}()
	<-g.started

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitFor(t, func() bool { return s.Stats().Draining })

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	resp, body := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(1), Items: 100})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("plan during drain = %d, body %s", resp.StatusCode, body)
	}

	select {
	case <-drained:
		t.Fatal("Drain returned while a solve was in flight")
	default:
	}
	close(g.release)
	<-drained
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200 delivered before drain completes", code)
	}
	st := s.Stats()
	if st.ShedDraining != 1 || st.Planned != 1 {
		t.Fatalf("stats = %+v, want 1 shed draining, 1 planned", st)
	}
	s.Drain() // idempotent, returns immediately
}

// TestServeCoarsePolicyNotPersisted pins the persistence gate: a
// daemon running a coarse policy reports the band on the wire but
// never writes approximate plans to the WAL, while solves below the
// coarse threshold stay exact and are persisted as before.
func TestServeCoarsePolicyNotPersisted(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "plans.wal")
	st, _, err := store.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := core.NewEngineConfig(core.EngineConfig{
		Policy:         core.PolicyCoarseRefine,
		Granularity:    16,
		CoarseMinItems: 1000,
	})
	s := NewServer(Config{Engine: eng, Store: st})
	defer s.Drain()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Above the coarse threshold: answered approximately, with the
	// policy and band on the wire, and NOT appended to the store.
	resp, body := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(1), Items: 5000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	pr := decodePlan(t, body)
	if pr.Source != "coarse" || pr.Policy != "coarse-refine" || pr.Granularity != 16 {
		t.Fatalf("coarse response = %+v, want coarse source with policy and granularity", pr)
	}
	if pr.Bound < 0 || pr.LowerBound <= 0 || pr.LowerBound > pr.Makespan {
		t.Fatalf("band fields inconsistent: bound %g, lower %g, makespan %g", pr.Bound, pr.LowerBound, pr.Makespan)
	}
	if sum(pr.Distribution) != 5000 {
		t.Fatalf("distribution %v sums to %d, want 5000", pr.Distribution, sum(pr.Distribution))
	}
	if got := s.Stats().StoreEntries; got != 0 {
		t.Fatalf("store entries after coarse solve = %d, want 0", got)
	}

	// Below the threshold the same daemon solves exactly: no band
	// fields, and the plan is durable.
	resp2, body2 := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(1), Items: 500})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("exact status = %d, body %s", resp2.StatusCode, body2)
	}
	pr2 := decodePlan(t, body2)
	if pr2.Policy != "" || pr2.Bound != 0 || pr2.Granularity != 0 {
		t.Fatalf("exact response carries band fields: %+v", pr2)
	}
	if got := s.Stats().StoreEntries; got != 1 {
		t.Fatalf("store entries after exact solve = %d, want 1", got)
	}
	if stats := s.Stats(); stats.Engine.CoarseSolves != 1 || stats.Engine.ColdSolves != 1 {
		t.Fatalf("engine stats = %+v, want one coarse and one cold solve", stats.Engine)
	}
}

// waitFor polls cond (test-side timing only; the daemon itself reads
// no clock).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// size reports the memo's entries and accounted bytes.
func (m *answerMemo) size() (entries, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.answers), m.bytes
}

// memoPost posts a raw body and returns the status, Content-Type and
// response bytes.
func memoPost(t *testing.T, url string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, out := postBody(t, url, body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), out
}

// TestServeStoreHitMemo is the differential test of the store-hit
// answer memo: for every key the first store hit (the slow path, which
// memoizes) and the memo replay agree in status, Content-Type, bytes
// and counter deltas; an engine answer is never replayed; and a flood
// of distinct bodies, sequential and then concurrent, keeps the memo
// within its byte budget while every answer stays a fresh Algorithm 2.
func TestServeStoreHitMemo(t *testing.T) {
	const budget = 4096
	st, _, err := store.Open(filepath.Join(t.TempDir(), "plans.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := newServer(Config{Store: st}, budget)
	defer s.Drain()
	ts := httptest.NewServer(s)
	defer ts.Close()

	type counters struct{ requests, storeHits, planned, bad int64 }
	snap := func() counters {
		x := s.Stats()
		return counters{x.Requests, x.StoreHits, x.Planned, x.BadRequests}
	}
	oneHit := counters{requests: 1, storeHits: 1, planned: 1}
	delta := func(a, b counters) counters {
		return counters{b.requests - a.requests, b.storeHits - a.storeHits, b.planned - a.planned, b.bad - a.bad}
	}

	type key struct {
		body  []byte
		req   PlanRequest
		store []byte // the slow path's store answer
	}
	var keys []key
	for i := 0; i < 24; i++ {
		req := PlanRequest{Platform: testPlatform(i % 8), Items: 300 + 150*(i/8)}
		if i%3 == 1 {
			req.Ordering = "as-listed"
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key{body: body, req: req})
	}

	for i := range keys {
		k := &keys[i]
		// The engine answers first; posting that body again is a store
		// hit, never a replay of the engine's answer.
		code, _, first := memoPost(t, ts.URL, k.body)
		if code != http.StatusOK {
			t.Fatalf("key %d: engine answer %d %s", i, code, first)
		}
		if src := decodePlan(t, first).Source; src == "store" {
			t.Fatalf("key %d: first answer came from the store", i)
		}
		before := snap()
		code, ctype, slow := memoPost(t, ts.URL, k.body)
		if d := delta(before, snap()); code != http.StatusOK || d != oneHit {
			t.Fatalf("key %d: slow store hit %d, counter delta %+v, want 200 and %+v", i, code, d, oneHit)
		}
		if src := decodePlan(t, slow).Source; src != "store" {
			t.Fatalf("key %d: repeat source %q, want store", i, src)
		}
		if n, _ := s.memo.size(); n == 0 {
			t.Fatalf("key %d: the slow store hit memoized nothing", i)
		}
		before = snap()
		mcode, mctype, memo := memoPost(t, ts.URL, k.body)
		if d := delta(before, snap()); d != oneHit {
			t.Fatalf("key %d: memo hit counter delta %+v, want %+v", i, d, oneHit)
		}
		if mcode != code || mctype != ctype || !bytes.Equal(memo, slow) {
			t.Fatalf("key %d: memo hit %d %q %q, slow path %d %q %q", i, mcode, mctype, memo, code, ctype, slow)
		}
		if _, b := s.memo.size(); b > budget {
			t.Fatalf("key %d: memo holds %d bytes, budget %d", i, b, budget)
		}
		k.store = slow
	}
	if n, _ := s.memo.size(); n >= len(keys) {
		t.Fatalf("memo kept all %d keys within %d bytes: the flood never evicted", n, budget)
	}

	// Across evictions every key still answers its store bytes, and
	// those are a fresh Algorithm 2.
	for i, k := range keys {
		code, _, got := memoPost(t, ts.URL, k.body)
		if code != http.StatusOK || !bytes.Equal(got, k.store) {
			t.Fatalf("key %d after evictions: %d %q, want %q", i, code, got, k.store)
		}
		policy := platform.OrderDescendingBandwidth
		if k.req.Ordering == "as-listed" {
			policy = platform.OrderAsListed
		}
		procs, err := k.req.Platform.ProcessorsOrdered(policy)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Algorithm2(procs, k.req.Items)
		if err != nil {
			t.Fatal(err)
		}
		pr := decodePlan(t, got)
		if pr.Makespan != want.Makespan || fmt.Sprint(pr.Distribution) != fmt.Sprint(want.Distribution) {
			t.Fatalf("key %d: served %v/%v, fresh Algorithm 2 %v/%v", i, pr.Distribution, pr.Makespan, want.Distribution, want.Makespan)
		}
	}
	if _, b := s.memo.size(); b > budget {
		t.Fatalf("memo holds %d bytes, budget %d", b, budget)
	}

	// Concurrent lookups, inserts and evictions still answer every key
	// its store bytes.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3*len(keys); r++ {
				k := keys[(g*7+r*5)%len(keys)]
				resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(k.body))
				if err != nil {
					t.Error(err)
					return
				}
				var got bytes.Buffer
				_, err = got.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), k.store) {
					t.Errorf("concurrent post: %d %q (%v), want %q", resp.StatusCode, got.Bytes(), err, k.store)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, b := s.memo.size(); b > budget {
		t.Fatalf("memo holds %d bytes after concurrent traffic, budget %d", b, budget)
	}

	// A body that differs only in whitespace is a different memo key
	// but the same store answer.
	code, _, spaced := memoPost(t, ts.URL, append([]byte(" "), keys[0].body...))
	if code != http.StatusOK || !bytes.Equal(spaced, keys[0].store) {
		t.Fatalf("whitespace variant: %d %q, want %q", code, spaced, keys[0].store)
	}
}
