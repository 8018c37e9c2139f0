// Command perfbench is the repository benchmark: seeded workloads
// against the public API of internal/serve, internal/store, internal/core
// and internal/platform, with every answer checked.
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 45 --trace 0
//
// With --trace 0 it measures one untraced phase and prints the
// end-to-end metrics; with --trace 1 it splits the time between
// untraced and traced measuring, writes the spans under
// .bench_build/spans/ and prints the per-layer metrics. The last line
// of standard output is the result object; README.md describes every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the checkout the benchmark reads and writes in.
	root string
}

// workDir is where runs keep their WALs and spans.
func (c config) workDir(parts ...string) string {
	return filepath.Join(append([]string{c.root, ".bench_build"}, parts...)...)
}

// phaseLen is how long one measured phase runs: the whole run untraced,
// half of it for each of a traced run's untraced and traced parts.
func (c config) phaseLen() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// invariant is one property the run checked, with how often.
type invariant struct {
	Name    string `json:"name"`
	Checked int    `json:"checked"`
	Failed  int    `json:"failed"`
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	// metrics are the registered metrics of this mode: end-to-end
	// untraced, per-layer traced.
	metrics []metric
	// extra are named measurements printed with the summary but not
	// registered in BENCHMARK.json.
	extra      []metric
	invariants []invariant
	params     map[string]any
}

func (r *report) check(name string, checked, failed int) {
	r.invariants = append(r.invariants, invariant{name, checked, failed})
}

// guard records a path guard: a one-shot check that the workload
// exercised the layer it was built for.
func (r *report) guard(name string, ok bool) {
	f := 0
	if !ok {
		f = 1
	}
	r.check("guard: "+name, 1, f)
}

func (r *report) correct() bool {
	if r.failed > 0 {
		return false
	}
	for _, inv := range r.invariants {
		if inv.Failed > 0 {
			return false
		}
	}
	return true
}

type workloadFunc func(cfg config) (*report, error)

var workloads = map[string]workloadFunc{
	"serve-hot":    runServeHot,
	"solve-table1": runTable1,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-hot or solve-table1")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; run state goes under its .bench_build/")
	flag.Parse()
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := emit(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !rep.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: an answer check or path guard failed\n", cfg.workload)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the human summary, the environment block, and last the
// result object.
func emit(cfg config, rep *report) error {
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, m := range append(append([]metric(nil), rep.metrics...), rep.extra...) {
		fmt.Printf("  %-26s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, inv := range rep.invariants {
		fmt.Printf("  check %-60s %8d checked %d failed\n", inv.Name, inv.Checked, inv.Failed)
	}
	extra := make(map[string]metric, len(rep.extra))
	for _, m := range rep.extra {
		extra[m.Name] = m
	}
	envLine, err := json.Marshal(map[string]any{"env": environment(cfg, rep.params, rep.invariants, extra)})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))

	metrics := make(map[string]metric, len(rep.metrics))
	for _, m := range rep.metrics {
		metrics[m.Name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
