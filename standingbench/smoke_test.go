package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/synth"
)

// tinyConfig shrinks a workload to a corpus of a few hundred documents and
// a one-second measurement.
func tinyConfig(t *testing.T, workload string, traced bool) *config {
	t.Helper()
	cfg, err := workloadConfig(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Corpus = synth.SmallConfig()
	cfg.HoldEvery = 4
	cfg.Rounds = 2
	cfg.Seconds = 1
	cfg.Rate = 100
	cfg.Warmup = 20
	cfg.IngestProbe = min(cfg.IngestProbe, 20)
	cfg.Sizes.Users = 10
	if !cfg.Skewed {
		cfg.Sizes.Forms, cfg.Sizes.Keywords = 400, 100
	}
	cfg.Seed, cfg.Trace, cfg.WorkDir = 3, traced, t.TempDir()
	return &cfg
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return strings.Join(a, ",") == strings.Join(b, ",")
}

func value(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// Every workload runs end to end on a tiny corpus, passes its gates, and
// reports exactly the metrics BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three small deployments")
	}
	e2e, layer := benchmarkNames(t)
	for _, wl := range []string{"hot_read", "cold_read", "write_mix"} {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, wl, traced)
			out, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v gates=%v attempted=%d failed=%d (%s)",
					wl, traced, out.Correct, out.Gates, out.Attempted, out.Failed, out.FirstErr)
			}
			if !sameSet(names(out.EndToEnd), e2e) {
				t.Fatalf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", wl, names(out.EndToEnd), e2e)
			}
			var buf, human bytes.Buffer
			out.print(&buf, &human)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
				t.Fatalf("%s: result line %q: %v", wl, lines[len(lines)-1], err)
			}
			if !traced {
				if len(res.Metrics) != len(e2e) {
					t.Fatalf("%s: result line has %d metrics, want %d", wl, len(res.Metrics), len(e2e))
				}
				continue
			}
			if !sameSet(names(out.PerLayer), layer) {
				t.Fatalf("%s: per-layer metrics %v, BENCHMARK.json declares %v", wl, names(out.PerLayer), layer)
			}
			inv := value(out.PerLayer, "cache.invalidations_per_s")
			if (wl == "write_mix") != (inv > 0) {
				t.Fatalf("%s: cache.invalidations_per_s = %v", wl, inv)
			}
			if wl == "write_mix" {
				for _, name := range []string{"durable.fsyncs_per_ingest", "durable.bytes_per_doc", "repl.visible_ms_p50", "shard.scatter_ms"} {
					if value(out.PerLayer, name) <= 0 {
						t.Fatalf("write_mix: %s = %v, want > 0", name, value(out.PerLayer, name))
					}
				}
			}
		}
	}
}
