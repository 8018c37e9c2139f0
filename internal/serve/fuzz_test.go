package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// Admission caps of the fuzzed daemon: small enough that every
// admitted request solves in well under a millisecond, so any 200 can
// be checked against a fresh Algorithm 2.
const (
	fuzzMaxItems      = 5000
	fuzzMaxProcessors = 16
	fuzzMaxBodyBytes  = 4096
)

// fuzzStatuses is the documented status set of POST /v1/plan.
var fuzzStatuses = map[int]bool{
	http.StatusOK:                  true,
	http.StatusBadRequest:          true,
	http.StatusMethodNotAllowed:    true,
	http.StatusUnprocessableEntity: true,
	http.StatusServiceUnavailable:  true,
	http.StatusGatewayTimeout:      true,
}

// fuzzAnswer is one response as the client sees it.
type fuzzAnswer struct {
	status int
	ctype  string
	body   []byte
}

func fuzzPost(s *Server, body []byte) fuzzAnswer {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	return fuzzAnswer{status: rec.Code, ctype: rec.Header().Get("Content-Type"), body: rec.Body.Bytes()}
}

// FuzzPlanHandler posts arbitrary bodies to POST /v1/plan on a daemon
// with a durable store, and asserts the handler's contract:
//
//   - it never panics and answers only with a documented status;
//   - every 200 is bit-identical to a fresh Algorithm 2 of its request;
//   - the answer is a function of the body: each body is posted three
//     times, and the answers are equal in status, Content-Type and
//     bytes, except that an engine answer is followed by the same plan
//     with "source":"store". The second post of an engine-answered body
//     takes the store's slow path and the third replays its memo, so
//     the two store paths are held to the same bytes.
//
// A 504 depends on the wall clock (the body may carry a tight
// timeoutMs), so the repeat of a 504 is held only to the first two
// properties.
//
// The server and its store are shared across inputs, so a body the
// fuzzer revisits starts from a store hit. The committed seeds in
// testdata/fuzz/FuzzPlanHandler cover valid bodies under each ordering,
// trailing whitespace, trailing garbage, two objects, a body over the
// cap, unknown fields, an empty body, out-of-bounds items and timeout,
// a machine claiming 10^8 CPUs, cost constants whose makespan
// overflows float64, and a rootless platform.
func FuzzPlanHandler(f *testing.F) {
	st, _, err := store.Open(filepath.Join(f.TempDir(), "plans.wal"))
	if err != nil {
		f.Fatal(err)
	}
	s := NewServer(Config{
		Store:         st,
		Workers:       2,
		MaxItems:      fuzzMaxItems,
		MaxProcessors: fuzzMaxProcessors,
		MaxBodyBytes:  fuzzMaxBodyBytes,
	})
	f.Cleanup(func() {
		s.Drain()
		st.Close()
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		answers := make([]fuzzAnswer, 3)
		for i := range answers {
			a := fuzzPost(s, body)
			if !fuzzStatuses[a.status] {
				t.Fatalf("post %d: status %d outside the documented set; body %q", i, a.status, a.body)
			}
			if a.status == http.StatusOK {
				checkFreshAlgorithm2(t, s, body, a.body)
			}
			answers[i] = a
		}
		for i := 1; i < len(answers); i++ {
			prev, cur := answers[i-1], answers[i]
			if prev.status == http.StatusGatewayTimeout {
				continue
			}
			if prev.status == http.StatusOK {
				if pr := decodePlan(t, prev.body); pr.Source != "store" {
					pr.Source = "store"
					prev.body, _ = encodeJSON(pr)
				}
			}
			if cur.status != prev.status || cur.ctype != prev.ctype || !bytes.Equal(cur.body, prev.body) {
				t.Fatalf("post %d answered %d %q %q after %d %q %q", i, cur.status, cur.ctype, cur.body,
					answers[i-1].status, answers[i-1].ctype, answers[i-1].body)
			}
		}
	})
}

// checkFreshAlgorithm2 asserts a 200 answer to body is exactly the plan
// a fresh Algorithm 2 computes for the request.
func checkFreshAlgorithm2(t *testing.T, s *Server, body, answer []byte) {
	t.Helper()
	req, err := decodePlanRequest(body)
	if err != nil {
		t.Fatalf("200 for an undecodable body %q: %v", body, err)
	}
	procs, errmsg := s.admitRequest(req)
	if errmsg != "" {
		t.Fatalf("200 for an inadmissible body %q: %s", body, errmsg)
	}
	want, err := core.Algorithm2(procs, req.Items)
	if err != nil {
		t.Fatalf("200 for a request Algorithm 2 rejects (%v): %q", err, body)
	}
	pr := decodePlan(t, answer)
	if math.Float64bits(pr.Makespan) != math.Float64bits(want.Makespan) {
		t.Fatalf("makespan %v, fresh Algorithm 2 %v; body %q", pr.Makespan, want.Makespan, body)
	}
	if len(pr.Distribution) != len(want.Distribution) || len(pr.Processors) != len(procs) {
		t.Fatalf("answer %s does not cover the %d processors of %q", answer, len(procs), body)
	}
	for i, d := range want.Distribution {
		if pr.Distribution[i] != d || pr.Processors[i] != procs[i].Name {
			t.Fatalf("answer %s, fresh Algorithm 2 %v over %v; body %q", answer, want.Distribution, procNames(procs), body)
		}
	}
}
