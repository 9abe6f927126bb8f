// Command perfbench is the repository benchmark: it composes a passd
// daemon the way cmd/passd does by default, drives it over protocol v3
// with one of three seeded workloads (ingest, query, restart), checks
// every answer, and prints the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1) as the last line of standard output.
//
//	bash perfbench/run.sh -workload ingest -seed 1 -seconds 10 -trace 0
//
// See perfbench/README.md for the workloads, the metrics and the map from
// each layer metric to the end-to-end metric it should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	root     string  // checkout root; scratch data goes under root/.bench_build
	workload string  // ingest, query or restart
	seed     int64   // input seed
	seconds  float64 // measured window
	trace    bool    // per-layer run instead of end-to-end run
	ops      int     // >0: a fixed operation count instead of a timed window
	inject   string  // fault for the negative checks: wrong-expected or corrupt-restart
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, query or restart")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&cfg.ops, "ops", 0, "run a fixed number of operations instead of a timed window")
	flag.StringVar(&cfg.inject, "inject", "", "negative check: wrong-expected or corrupt-restart")
	flag.Parse()
	cfg.trace = trace == 1

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run executes one workload and returns its result. Information lines
// (the environment block and the workload's named metrics) go to info;
// the caller prints the result itself, so a failed run prints none.
func run(cfg config, info io.Writer) (*result, error) {
	if cfg.seconds <= 0 && cfg.ops <= 0 {
		return nil, errors.New("need -seconds > 0 or -ops > 0")
	}
	work, err := os.MkdirTemp(mkdirAll(filepath.Join(cfg.root, ".bench_build", "work")), cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := newBench(cfg, work)

	var m *measurement
	switch cfg.workload {
	case "ingest":
		m, err = b.ingest()
	case "query":
		m, err = b.query()
	case "restart":
		m, err = b.restart()
	default:
		return nil, fmt.Errorf("unknown workload %q (want ingest, query or restart)", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}

	env := environment(cfg, b.rawFsyncMS)
	res := &result{Correct: true, Attempted: m.attempted, Failed: m.failed}
	if cfg.trace {
		res.Metrics = b.perLayer(m)
		path := filepath.Join(mkdirAll(filepath.Join(cfg.root, ".bench_build", "trace")),
			fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := b.tr.writeFile(path, env); err != nil {
			return nil, err
		}
		env["trace_file"] = path
	} else {
		res.Metrics = b.endToEnd(m)
	}
	named := b.named(m)
	line, err := json.Marshal(map[string]any{"env": env, "named": named})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(info, string(line))
	printTable(info, cfg.workload, "named", named)
	printTable(info, cfg.workload, "metric", res.Metrics)
	return res, nil
}

// printTable prints one "workload kind name value unit" line per metric,
// sorted by name.
func printTable(w io.Writer, workload, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %s %g %s\n", workload, kind, name, ms[name].Value, ms[name].Unit)
	}
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp or WriteFile reports a failure
	return dir
}

// environment is the block recorded with every run.
func environment(cfg config, rawFsyncMS float64) map[string]any {
	return map[string]any{
		"workload":             cfg.workload,
		"seed":                 cfg.seed,
		"seconds":              cfg.seconds,
		"ops":                  cfg.ops,
		"trace":                cfg.trace,
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"numcpu":               runtime.NumCPU(),
		"go":                   runtime.Version(),
		"git_rev":              gitRev(cfg.root),
		"src_sha256":           sourceDigest(cfg.root),
		"flush_policy":         "one fsync per durable ack (unbuffered provlog, Config.Sync once per acked request)",
		"daemon":               fmt.Sprintf("mmr on, ed25519 signer, checkpoint every %d records or %v, full every %d, drain every %v", ckptRecords, ckptInterval, ckptFullEvery, drainInterval),
		"vfs_raw_fsync_ms_p50": rawFsyncMS,
	}
}

// gitRev reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "none" (src_sha256 then
// identifies the source).
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout,
// in path order, so that two runs can be matched to the same code.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
