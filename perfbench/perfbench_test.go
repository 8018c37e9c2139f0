package main

import (
	"bytes"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q    int
		want float64
	}{{p50, 50}, {p99, 99}, {10000, 100}, {1, 1}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..100, %d) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, p50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n, q, rank, beyond int
		ok                 bool
	}{
		{1000, p99, 990, 10, true},
		{999, p99, 990, 9, false},
		{1010, p99, 1000, 10, true},
		{100, p99, 99, 1, false},
		{20, p50, 10, 10, true},
		{19, p50, 10, 9, false},
		{0, p99, 1, 0, false},
	} {
		if c.n > 0 {
			if got := rank(c.n, c.q); got != c.rank {
				t.Errorf("rank(%d, %d) = %d, want %d", c.n, c.q, got, c.rank)
			}
		}
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %d) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got := tailSupported(c.n, c.q); got != c.ok {
			t.Errorf("tailSupported(%d, %d) = %t, want %t", c.n, c.q, got, c.ok)
		}
	}
}

func TestSummarizeTakesMediansOverWindows(t *testing.T) {
	ramp := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i+1) * scale // unsorted on purpose
		}
		return xs
	}
	// Three 1-s windows of 1000 samples and one of 100 slow ones.
	ws := []window{
		{ramp(1000, 1), 1},
		{ramp(1000, 2), 1},
		{ramp(1000, 3), 1},
		{ramp(100, 50), 1},
	}
	got := summarize(ws)
	// Medians of even counts take the lower middle (nearest rank).
	want := windowStats{rate: 1000, p50: 1000, p99: 1980, minBeyond: 1}
	if got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
	if got := summarize(nil); got != (windowStats{}) {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
	// A window with no answers counts as rate 0 and has no percentiles.
	got = summarize([]window{{nil, 1}, {ramp(10, 1), 2}, {ramp(10, 1), 2}})
	if got.rate != 5 || got.p50 != 5 || got.minBeyond != 0 {
		t.Errorf("summarize with an empty window = %+v", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 10, End: 30}}, 80},
		{"nested", []span{{Start: 10, End: 40}, {Start: 20, End: 30}}, 70},
		{"overlapping", []span{{Start: 10, End: 30}, {Start: 20, End: 50}}, 60},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 40}}, 80},
		{"sticking out", []span{{Start: -20, End: 10}, {Start: 90, End: 150}}, 80},
		{"outside", []span{{Start: 200, End: 300}}, 100},
		{"identical", []span{{Start: 10, End: 20}, {Start: 10, End: 20}}, 90},
		{"unsorted mix", []span{{Start: 60, End: 70}, {Start: 5, End: 15}, {Start: 12, End: 18}, {Start: 65, End: 80}}, 67},
		{"covers all", []span{{Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// hotStreamBytes renders the first requests of both clients' serve-hot
// streams.
func hotStreamBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	keys, err := hotKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != hotPlatforms*len(hotItems) {
		t.Fatalf("%d keys, want %d", len(keys), hotPlatforms*len(hotItems))
	}
	var buf bytes.Buffer
	for c := 0; c < clients; c++ {
		next := hotStream(seed, c, len(keys))
		for i := 0; i < 500; i++ {
			buf.Write(keys[next()].body)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

func TestSeedYieldsByteIdenticalStreams(t *testing.T) {
	if a, b := hotStreamBytes(t, 7), hotStreamBytes(t, 7); !bytes.Equal(a, b) {
		t.Error("serve-hot: same seed gave different request streams")
	}
	if a, b := hotStreamBytes(t, 7), hotStreamBytes(t, 8); bytes.Equal(a, b) {
		t.Error("serve-hot: seeds 7 and 8 gave the same request stream")
	}
	a, err := table1Inputs(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := table1Inputs(7)
	if a.n1 != b.n1 || a.n2 != b.n2 || !bytes.Equal(a.plat, b.plat) {
		t.Error("solve-table1: same seed gave different inputs")
	}
	if !(a.n2 < a.n1 && a.n1 < table1Items) {
		t.Errorf("solve-table1: cascade items %d, %d do not shrink from %d", a.n1, a.n2, table1Items)
	}
}
