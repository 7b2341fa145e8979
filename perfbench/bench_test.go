package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestShortWorkloads runs every workload with small inputs, untraced and
// traced, through the same correctness checks as a full run.
func TestShortWorkloads(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			label := name + "/untraced"
			if traced {
				label = name + "/traced"
			}
			t.Run(label, func(t *testing.T) {
				dataDir := filepath.Join(t.TempDir(), "run")
				if err := os.MkdirAll(dataDir, 0o755); err != nil {
					t.Fatal(err)
				}
				p := params{seed: 3, dur: 2 * time.Second, trace: traced, short: true, dataDir: dataDir}
				o, err := workloads[name](p)
				if err != nil {
					t.Fatal(err)
				}
				if o.attempted == 0 || o.failed != 0 {
					t.Fatalf("attempted %d, failed %d: %v", o.attempted, o.failed, o.failures)
				}
				if !traced {
					for _, d := range endToEnd {
						if v := o.e2e[d.name]; !(v > 0) {
							t.Errorf("%s = %v, want > 0", d.name, v)
						}
					}
					return
				}
				for _, d := range perLayer {
					if _, ok := o.layer[d.name]; !ok && !optionalLayer(name, d.name) {
						t.Errorf("per-layer metric %s missing", d.name)
					}
				}
				if name == "gateway-roundtrip" && o.layer["trace.tiled_share"] != 1 {
					t.Errorf("trace.tiled_share = %v: not every job's four segments tile its interval", o.layer["trace.tiled_share"])
				}
				base, err := tracePath(p, name)
				if err != nil {
					t.Fatal(err)
				}
				for _, suffix := range []string{".spans.jsonl", ".summary.json"} {
					if st, err := os.Stat(base + suffix); err != nil || st.Size() == 0 {
						t.Errorf("trace file %s%s missing or empty (%v)", base, suffix, err)
					}
				}
			})
		}
	}
}

// optionalLayer names the per-layer metrics a workload has no layer for;
// they print as 0.
func optionalLayer(workload, metric string) bool {
	switch {
	case strings.HasPrefix(metric, "wall."):
		return true // filled in by report from the wall-clock figures
	case strings.HasPrefix(metric, "trace.seg_"), metric == "trace.tiled_share", metric == "trace.residue_share",
		metric == "engine.stage_us_p50", metric == "engine.stage_us_p99":
		return workload != "gateway-roundtrip"
	case strings.HasPrefix(metric, "gateway."):
		return workload == "backlog-restart"
	case strings.HasPrefix(metric, "slicing."):
		return workload == "backlog-restart"
	case metric == "generator.lateness_ms_p99":
		return workload != "procurement"
	case metric == "trace.overhead_e2e_p50":
		return workload == "backlog-restart"
	}
	return false
}

// TestReportLastLine checks the result line's shape: the last line of the
// output is one JSON object with exactly correct, attempted, failed and
// metrics, and every metric carries a value and a unit.
func TestReportLastLine(t *testing.T) {
	o := newOutcome()
	o.attempted = 3
	for _, d := range endToEnd {
		o.e2e[d.name] = 1.5
	}
	out := report("procurement", params{seed: 1}, o)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("keys %v", keys)
	}
	var metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := metrics[d.name]; m.Value != 1.5 || m.Unit != d.unit {
			t.Errorf("%s: %+v", d.name, m)
		}
	}
}
