// Command perfbench is the repository benchmark: it runs one workload
// against the real Demaq engine, checks the outputs against values it
// computes itself, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the workload runs traced and the metrics are the per-layer metrics,
// while the span file and a per-layer summary are written under
// .bench_build/trace. Run it from the repository root through
// perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload gateway-roundtrip --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(params) (*outcome, error){
	"gateway-roundtrip": runRoundtrip,
	"procurement":       runProcurement,
	"backlog-restart":   runBacklog,
}

// endToEnd and perLayer list every metric a run prints, with its unit.
// The end-to-end metrics are CPU time and memory: on a shared virtual
// machine the hypervisor's steal stretches every wall-clock figure by up
// to a factor of two from one minute to the next, which no regression
// bound can absorb (see the README), while CPU time is not charged for
// stolen time.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_msg", "us"},
	{"heap_mb", "MiB"},
}

// wallClock are the wall-clock figures a user waits for. Every run prints
// them; the traced run reports them as metrics with a "wall." prefix.
var wallClock = []metricDef{
	{"setup_s", "s"},
	{"throughput_msgs_s", "msgs/s"},
	{"e2e_p50_ms", "ms"},
	{"e2e_p99_ms", "ms"},
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"reopen_s", "s"},
}

var perLayer = []metricDef{
	{"gateway.admit_us_p50", "us"},
	{"gateway.admit_us_p99", "us"},
	{"gateway.admit_inflight_avg", "count"},
	{"gateway.out_cycle_us_p50", "us"},
	{"gateway.retransmits", "count"},
	{"engine.stage_us_p50", "us"},
	{"engine.stage_us_p99", "us"},
	{"engine.avg_batch", "msgs"},
	{"engine.rules_per_msg", "ratio"},
	{"engine.fired_ratio", "ratio"},
	{"engine.deadlocks_per_msg", "ratio"},
	{"engine.backlog_max", "msgs"},
	{"engine.open_s", "s"},
	{"engine.reopen_cpu_s", "s"},
	{"xquery.eval_us_per_msg", "us"},
	{"xmldom.encode_us_per_msg", "us"},
	{"xmldom.decode_us_per_msg", "us"},
	{"xmldom.serialize_us_per_msg", "us"},
	{"msgstore.doc_cache_hit_ratio", "ratio"},
	{"msgstore.payload_bytes_per_msg", "bytes"},
	{"msgstore.open_s", "s"},
	{"store.fsyncs_per_msg", "ratio"},
	{"store.fsync_us_p50", "us"},
	{"store.fsync_us_p99", "us"},
	{"store.fsync_busy_s", "s"},
	{"store.commits_per_msg", "ratio"},
	{"store.coalesced_ratio", "ratio"},
	{"store.wal_bytes_per_msg", "bytes"},
	{"store.write_bytes_per_msg", "bytes"},
	{"store.read_bytes_per_msg", "bytes"},
	{"store.buffer_hit_ratio", "ratio"},
	{"store.checkpoints", "count"},
	{"store.ckpt_ms", "ms"},
	{"store.open_s", "s"},
	{"store.recovery_replayed", "count"},
	{"slicing.gc_ms_p50", "ms"},
	{"slicing.collected_per_req", "ratio"},
	{"generator.lateness_ms_p99", "ms"},
	{"trace.tiled_share", "ratio"},
	{"trace.seg_client_to_admit_ms_p50", "ms"},
	{"trace.seg_admit_ms_p50", "ms"},
	{"trace.seg_stage_ms_p50", "ms"},
	{"trace.seg_out_to_receiver_ms_p50", "ms"},
	{"trace.seg_client_to_admit_share", "ratio"},
	{"trace.seg_admit_share", "ratio"},
	{"trace.seg_stage_share", "ratio"},
	{"trace.seg_out_to_receiver_share", "ratio"},
	{"trace.residue_share", "ratio"},
	{"trace.overhead_e2e_p50", "ratio"},
	{"trace.overhead_throughput", "ratio"},
	{"wall.setup_s", "s"},
	{"wall.throughput_msgs_s", "msgs/s"},
	{"wall.e2e_p50_ms", "ms"},
	{"wall.e2e_p99_ms", "ms"},
	{"wall.ack_p50_ms", "ms"},
	{"wall.ack_p99_ms", "ms"},
	{"wall.reopen_s", "s"},
}

type metricDef struct{ name, unit string }

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: gateway-roundtrip, procurement or backlog-restart")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dataDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dataDir)
	p := params{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		dataDir: dataDir}
	printEnv(dataDir)
	o, err := runner(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Print(report(*workload, p, o))
	return 0
}

// report formats the human-readable lines and the final JSON line.
func report(workload string, p params, o *outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d: attempted %d, failed %d\n", workload, p.seed, o.attempted, o.failed)
	for _, f := range o.failures {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	for _, n := range o.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	defs, values := endToEnd, o.e2e
	if p.trace {
		defs, values = perLayer, o.layer
		for _, d := range wallClock {
			values["wall."+d.name] = o.wall[d.name]
		}
	} else {
		for _, d := range wallClock {
			fmt.Fprintf(&b, "  %-36s %14.6g %s (wall clock, unbounded)\n", "wall."+d.name, o.wall[d.name], d.unit)
		}
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v := values[d.name]
		fmt.Fprintf(&b, "  %-36s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	b.Write(line)
	b.WriteByte('\n')
	return b.String()
}

// printEnv prints the environment stamp: Go version, GOMAXPROCS, CPU
// model and the fsync latency of the data directory's filesystem.
func printEnv(dir string) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	p50, p99, err := fsyncProbe(dir)
	probe := fmt.Sprintf("p50 %.1fus p99 %.1fus", p50, p99)
	if err != nil {
		probe = "failed: " + err.Error()
	}
	fmt.Printf("env: %s GOMAXPROCS=%d NumCPU=%d cpu=%q fsync(%s)\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, probe)
}

// fsyncProbe writes and fsyncs a 4 KiB block 50 times in dir.
func fsyncProbe(dir string) (p50, p99 float64, err error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var lat []float64
	for i := 0; i < 50; i++ {
		if _, err := f.WriteAt(block, int64(i)*4096); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, 0, err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	sort.Float64s(lat)
	return quantile(lat, 0.5), quantile(lat, 0.99), nil
}

// slogFor routes an engine's diagnostics into a counting handler.
func slogFor(h *countingHandler) *slog.Logger { return slog.New(h) }

// finishTrace writes the span file and per-layer summary of a traced run.
func finishTrace(o *outcome, p params, tr *tracer, workload string) (*outcome, error) {
	if tr == nil {
		return o, nil
	}
	base, err := tracePath(p, workload)
	if err != nil {
		return nil, err
	}
	path, err := tr.writeFiles(base, o.layer)
	if err != nil {
		return nil, err
	}
	o.notes = append(o.notes, "trace: "+base+".spans.jsonl, summary "+path)
	sum := tr.summarize()
	layers := make([]string, 0, len(sum))
	for layer := range sum {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		s := sum[layer]
		o.notes = append(o.notes, fmt.Sprintf("layer %-8s spans %7d total %8.3fs self %8.3fs busy %8.3fs",
			layer, s.Spans, s.TotalS, s.SelfS, s.BusyS))
	}
	return o, nil
}
