package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// short is a brief fixed-count run of one workload at a fixed seed.
func short(workload string, trace bool) config {
	return config{root: "..", workload: workload, seed: 7, ops: 40, trace: trace}
}

// exactCounts are the per-layer metrics that must repeat exactly between
// two invocations with the same seed and operation count.
var exactCounts = []string{
	"provlog.bytes_per_record",
	"mmr.leaves_per_record",
	"kvdb.keys",
	"checkpoint.chain_len",
	"pql.rows_per_query",
}

func TestWorkloadsCorrectAndRepeatable(t *testing.T) {
	for _, w := range []string{"ingest", "query", "restart"} {
		t.Run(w, func(t *testing.T) {
			var first map[string]metric
			for i := 0; i < 2; i++ {
				res, err := run(short(w, true), io.Discard)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d", i, res.Correct, res.Attempted, res.Failed)
				}
				if first == nil {
					first = res.Metrics
					continue
				}
				for _, name := range exactCounts {
					if a, b := first[name].Value, res.Metrics[name].Value; a != b {
						t.Errorf("%s differs between invocations: %v then %v", name, a, b)
					}
				}
			}
			if v := first["mmr.leaves_per_record"].Value; v != 1 {
				t.Errorf("mmr.leaves_per_record = %v, want 1", v)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON pins the reported metric names to the
// ones BENCHMARK.json declares, in both kinds of run.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace bool
		want  []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res, err := run(short("restart", tc.trace), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range tc.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if g, w := len(got), len(want); g != w {
			t.Fatalf("trace=%v: %d metrics reported, BENCHMARK.json declares %d\ngot  %v\nwant %v", tc.trace, g, w, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("trace=%v: reported %q, BENCHMARK.json declares %q", tc.trace, got[i], want[i])
			}
		}
	}
}

// TestNegativeChecks feeds a deliberately wrong expected result and a
// corrupted restart directory: both runs must fail and report nothing.
func TestNegativeChecks(t *testing.T) {
	for _, tc := range []struct{ workload, inject string }{
		{"query", "wrong-expected"},
		{"restart", "wrong-expected"},
		{"restart", "corrupt-restart"},
	} {
		cfg := short(tc.workload, false)
		cfg.inject = tc.inject
		res, err := run(cfg, io.Discard)
		if err == nil || res != nil {
			t.Errorf("%s with %s: want a failed run and no result, got %+v, %v", tc.workload, tc.inject, res, err)
		}
	}
}

// TestIngestRounds runs a short timed ingest that splits its window into
// two rounds and checks that every round was set up, measured and added
// to the result.
func TestIngestRounds(t *testing.T) {
	cfg := config{root: "..", workload: "ingest", seed: 7, seconds: 1.5 * ingestRoundSecs, trace: true}
	work := t.TempDir()
	b := newBench(cfg, work)
	m, err := b.ingest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.setupSecs) != 2 || len(m.windows) != 2 {
		t.Fatalf("%d set-ups and %d windows, want 2 of each", len(m.setupSecs), len(m.windows))
	}
	if m.windowSecs < 0.9*cfg.seconds || m.windowSecs > 1.5*cfg.seconds {
		t.Errorf("windows last %.2f s in all, want about %.2f s", m.windowSecs, cfg.seconds)
	}
	var acked float64
	for _, s := range b.acks {
		acked += s.units
	}
	if acked != float64(m.ackedRecords) || m.opUnits != acked {
		t.Errorf("acks carry %v records, the rounds counted %d acked and %v units", acked, m.ackedRecords, m.opUnits)
	}
	if m.stats.Appends < m.ackedRecords {
		t.Errorf("STATS appends summed over the rounds is %d, below the %d records acked", m.stats.Appends, m.ackedRecords)
	}
	if m.c.appended < m.ackedRecords {
		t.Errorf("Append saw %d records over the rounds, below the %d acked", m.c.appended, m.ackedRecords)
	}
	if got := m.inWindow(m.windows[1][0]); !got || m.inWindow(m.windows[0][1]) {
		t.Errorf("inWindow: start of round 2 = %v (want true), end of round 1 = %v (want false)", got, m.inWindow(m.windows[0][1]))
	}
}
