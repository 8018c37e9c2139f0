package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// environment is the block every result carries: toolchain, CPUs, the
// code under test, the inputs, and the invariants the run checked.
func environment(cfg config, params map[string]any, invs []invariant, extra map[string]metric) map[string]any {
	return map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"max_rss_mb":  maxRSSMB(),
		"commit":      gitCommit(cfg.root),
		"source_hash": sourceHash(cfg.root),
		"params":      params,
		"invariants":  invs,
		"extra":       extra,
	}
}

// maxRSSMB is the process's peak resident set so far, in MB; 0 where
// the platform does not report it.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git; "none" when the checkout is not a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "none"
}

// sourceHash identifies the program under test when no commit is at
// hand: a SHA-256 over go.mod and every non-test .go file of the module
// outside the benchmark's own directory.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".git" || rel == ".bench_build" || rel == "perfbench" || strings.HasSuffix(rel, "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == "go.mod" || (strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, "_test.go")) {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		b, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return "unavailable"
		}
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
