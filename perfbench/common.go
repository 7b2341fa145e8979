package main

import (
	"context"
	"fmt"
	"io/fs"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing/fstest"
	"time"

	"demaq/internal/engine"
	"demaq/internal/gateway"
	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/store"
)

// params are the knobs every workload receives from the command line.
type params struct {
	seed    int64
	dur     time.Duration // length of the timed phase
	trace   bool          // traced run: per-layer metrics and span file
	short   bool          // test mode: small inputs, same checks
	dataDir string        // scratch directory inside the checkout
}

// outcome is what one workload run reports.
type outcome struct {
	attempted int
	failed    int
	failures  []string           // the first few failure descriptions
	e2e       map[string]float64 // end-to-end metrics (untraced run)
	wall      map[string]float64 // wall-clock figures (printed; traced: metrics)
	layer     map[string]float64 // per-layer metrics (traced run)
	notes     []string           // extra lines for the human-readable log
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, wall: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check records a correctness violation that is not tied to one operation
// (an integrity error, a leftover message). It also marks the run failed.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.fail(format, args...)
	}
}

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs is
// sorted in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowLen is the length of the windows a closed-loop phase is cut into.
const windowLen = time.Second

// On a shared virtual machine, co-tenants take CPU time ("steal") and
// disk bandwidth away in bursts of seconds to minutes, and a node that
// loses a fifth of its CPU answers twice as slowly. A timed phase is
// therefore cut into intervals (one-second windows, open-loop slices,
// reopen-and-drain cycles) and its wall-clock figures are taken from the
// better quarter of them, ranked by the interval's own median latency or
// duration. A
// regression in the program slows every interval; a co-tenant's burst
// slows some.

// calmest marks the quarter of the intervals (rounded up) with the lowest
// score; ties keep the earlier interval.
func calmest(score []float64) []bool {
	idx := make([]int, len(score))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return score[idx[a]] < score[idx[b]] })
	keep := make([]bool, len(score))
	for _, i := range idx[:(len(score)+3)/4] {
		keep[i] = true
	}
	return keep
}

// windows cuts a closed-loop phase into one-second windows and keeps the
// better quarter of them, ranked by their median end-to-end latency. Each
// operation falls into the window of its start; its completion counts in
// the window it completed in.
type windows struct {
	start time.Time
	keep  []bool
	done  []float64
	vals  [][2][]float64 // per window, per latency series
}

// newWindows covers the n complete windows of a phase that began at start.
func newWindows(start time.Time, n int) *windows {
	return &windows{start: start, done: make([]float64, n), vals: make([][2][]float64, n)}
}

// rank chooses the kept windows once every operation has been added.
func (w *windows) rank() {
	score := make([]float64, len(w.vals))
	for i := range w.vals {
		score[i] = math.Inf(1)
		if len(w.vals[i][0]) > 0 {
			score[i] = median(w.vals[i][0])
		}
	}
	w.keep = calmest(score)
}

func (w *windows) index(t time.Time) int { return int(t.Sub(w.start) / windowLen) }

// add records one operation started at and completed at done, with a
// value for each of the two latency series.
func (w *windows) add(at, done time.Time, series0, series1 float64) {
	if i := w.index(done); i >= 0 && i < len(w.done) {
		w.done[i]++
	}
	if i := w.index(at); i >= 0 && i < len(w.vals) {
		w.vals[i][0] = append(w.vals[i][0], series0)
		w.vals[i][1] = append(w.vals[i][1], series1)
	}
}

// rate is the median completions per second over the kept windows.
func (w *windows) rate() float64 {
	var rates []float64
	for i, d := range w.done {
		if w.keep[i] {
			rates = append(rates, d/windowLen.Seconds())
		}
	}
	return median(rates)
}

// quantile is the q-quantile of one latency series over the operations
// started in the kept windows.
func (w *windows) quantile(series int, q float64) float64 {
	var xs []float64
	for i := range w.vals {
		if w.keep[i] {
			xs = append(xs, w.vals[i][series]...)
		}
	}
	return quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the CPU time (user and system) the process has used so far.
// Time the hypervisor gives to other guests is not charged to it, so CPU
// per operation holds still where wall-clock figures stretch.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the CPU time of the calling OS thread (Linux
// RUSAGE_THREAD).
func threadCPU() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedOpen opens a node and returns its wall-clock time and the CPU time
// of the opening thread. Most of engine.New runs on the calling goroutine;
// the thread's CPU time leaves out the runtime's background workers and
// whatever else the process does meanwhile.
func timedOpen(o nodeOptions) (e *engine.Engine, wall, cpu time.Duration, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadCPU(), time.Now()
	e, err = openNode(o)
	return e, time.Since(t0), threadCPU() - c0, err
}

// setupClock times the repeated set-ups of a run: setup_s is the median
// CPU time of a set-up, wall.setup_s its median wall-clock time.
type setupClock struct {
	cpu, wall []float64
	c0        time.Duration
	t0        time.Time
}

func (s *setupClock) start() { s.c0, s.t0 = cpuTime(), time.Now() }

func (s *setupClock) stop() {
	s.cpu = append(s.cpu, (cpuTime() - s.c0).Seconds())
	s.wall = append(s.wall, time.Since(s.t0).Seconds())
}

func (s *setupClock) report(o *outcome) {
	o.e2e["setup_s"] = median(s.cpu)
	o.wall["setup_s"] = median(s.wall)
}

// heapMiB forces a collection and returns the live heap (HeapAlloc).
// HeapInuse would add the free slots of partly used spans, which depend
// on the order of past allocations: on the round trip it moved between
// 4.8 and 5.6 MiB over seeds while the live heap stayed at 2.8-2.9 MiB.
func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// countingHandler is the engines' slog handler: it counts warnings and
// errors (rule errors without an error queue, deferred gateway sends,
// failed checkpoints) so the benchmark can treat them as failures, and
// drops everything else.
type countingHandler struct {
	n     atomic.Int64
	mu    sync.Mutex
	first []string
}

func (h *countingHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelWarn }
func (h *countingHandler) Handle(_ context.Context, r slog.Record) error {
	h.n.Add(1)
	h.mu.Lock()
	if len(h.first) < 5 {
		msg := r.Message
		r.Attrs(func(a slog.Attr) bool {
			msg += " " + a.String()
			return true
		})
		h.first = append(h.first, msg)
	}
	h.mu.Unlock()
	return nil
}
func (h *countingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *countingHandler) WithGroup(string) slog.Handler      { return h }

// report turns logged warnings into failures.
func (h *countingHandler) report(o *outcome) {
	if n := h.n.Load(); n > 0 {
		h.mu.Lock()
		defer h.mu.Unlock()
		o.fail("engine logged %d warnings/errors, first: %v", n, h.first)
	}
}

// gatewayFiles are the WSDL and policy resources of the workloads' gateway
// queues: the node listens on sim://node/in and delivers results to the
// benchmark's receiver at sim://bench/recv.
var gatewayFiles = fstest.MapFS{
	"node.wsdl": &fstest.MapFile{Data: []byte(`
		<definitions><service name="Node">
		  <port name="InPort"><address location="sim://node/in"/></port>
		</service></definitions>`)},
	"recv.wsdl": &fstest.MapFile{Data: []byte(`
		<definitions><service name="Receiver">
		  <port name="OutPort"><address location="sim://bench/recv"/></port>
		</service></definitions>`)},
	"rm.xml": &fstest.MapFile{Data: []byte(`<policy/>`)},
}

const (
	nodeInAddr   = "sim://node/in"
	receiverAddr = "sim://bench/recv"
)

// nodeOptions are the engine settings the workloads share: production
// defaults (4 workers, batch 32, slice locking, index dispatch) with the
// page store optionally wrapped for I/O accounting.
type nodeOptions struct {
	dir        string
	app        *qdl.Application
	resources  fs.FS
	transports *gateway.Registry
	vfs        store.VFS // nil: the real filesystem
	noSync     bool
	checkpoint time.Duration
	logger     *slog.Logger
}

func (o nodeOptions) config() engine.Config {
	so := msgstore.DefaultOptions()
	so.Store.SyncCommits = !o.noSync
	so.Store.VFS = o.vfs
	return engine.Config{
		Dir:                o.dir,
		Store:              so,
		Resources:          o.resources,
		Transports:         o.transports,
		CheckpointInterval: o.checkpoint,
		Logger:             o.logger,
	}
}

func openNode(o nodeOptions) (*engine.Engine, error) {
	// The store creates its directory only on the real filesystem.
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	return engine.New(o.config(), o.app)
}

// storeOptions are the page-store options an engine opened with o uses.
func (o nodeOptions) storeOptions() msgstore.Options { return o.config().Store }

// reopenTimes measures a clean-shutdown restart of the node in dir: the
// page store alone, the message store alone, then engine.New (the restart
// a user waits for), each opened and closed again. The engine is reopened
// reps times. The last reopened engine is returned, not started, so the
// caller can check the recovered state.
type reopenTimes struct {
	storeOpen, msgstoreOpen float64 // seconds, wall clock, fastest open
	engineOpen              float64 // seconds, wall clock, fastest reopen
	engineCPU               float64 // seconds of CPU time, fastest reopen
	replayed                uint64
	lastRecovery            time.Duration
}

func measureReopen(o nodeOptions, reps int, layers bool) (reopenTimes, *engine.Engine, error) {
	var rt reopenTimes
	so := o.storeOptions()
	for i := 0; layers && i < reps; i++ {
		// The first open replays what a crash left; the clean closes after
		// it leave nothing to replay.
		t0 := time.Now()
		ps, err := store.Open(o.dir, so.Store)
		if err != nil {
			return rt, nil, fmt.Errorf("store.Open: %w", err)
		}
		if d := time.Since(t0).Seconds(); i == 0 || d < rt.storeOpen {
			rt.storeOpen = d
		}
		if i == 0 {
			rt.replayed = ps.Stats().RecoveryRecordsReplayed
		}
		if err := ps.Close(); err != nil {
			return rt, nil, err
		}
		t0 = time.Now()
		m, err := msgstore.Open(o.dir, so)
		if err != nil {
			return rt, nil, fmt.Errorf("msgstore.Open: %w", err)
		}
		if d := time.Since(t0).Seconds(); i == 0 || d < rt.msgstoreOpen {
			rt.msgstoreOpen = d
		}
		if err := m.Close(); err != nil {
			return rt, nil, err
		}
	}
	var times, cpus []float64
	var e *engine.Engine
	for i := 0; i < reps; i++ {
		if e != nil {
			if err := e.Stop(); err != nil {
				return rt, nil, err
			}
		}
		// A reopened engine that is never started keeps its gateway
		// endpoints subscribed, so every reopen gets a network of its own.
		o.transports = gateway.NewRegistry(gateway.NewNetwork(1))
		runtime.GC() // every reopen starts from a collected heap
		var err error
		var wall, cpu time.Duration
		e, wall, cpu, err = timedOpen(o)
		if err != nil {
			return rt, nil, fmt.Errorf("engine.New: %w", err)
		}
		times = append(times, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
	}
	// Steal only adds wall-clock time and other work on the thread only
	// adds CPU time, so the fastest reopen is reported for both.
	rt.engineOpen = quantile(times, 0)
	rt.engineCPU = quantile(cpus, 0)
	rt.lastRecovery = e.Stats().LastRecovery
	return rt, e, nil
}

// checkQuiescent verifies the state a finished run must leave: no queue
// holds an unprocessed message, the named error queues are empty, and the
// message store's integrity check passes.
func checkQuiescent(o *outcome, e *engine.Engine, errorQueues ...string) {
	ms := e.MessageStore()
	for _, q := range ms.QueueNames() {
		if n := len(ms.UnprocessedIDs(q)); n > 0 {
			o.fail("queue %s holds %d unprocessed messages after the run", q, n)
		}
	}
	for _, q := range errorQueues {
		msgs, err := ms.Messages(q)
		o.check(err == nil && len(msgs) == 0, "error queue %s holds %d messages (err %v)", q, len(msgs), err)
	}
	if err := ms.VerifyIntegrity(); err != nil {
		o.fail("msgstore.VerifyIntegrity: %v", err)
	}
}

// copyDir copies the regular files of src into a fresh dst (the stores
// are flat directories).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			return fmt.Errorf("copyDir: %s is not a regular file", ent.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// engineDelta is the difference of two engine/store counter snapshots
// over a measured phase.
type counters struct {
	eng engine.Stats
	ps  store.Stats
	ms  msgstore.Stats
}

func snapshot(e *engine.Engine) counters {
	return counters{eng: e.Stats(), ps: e.MessageStore().PageStore().Stats(), ms: e.MessageStore().Stats()}
}

// layerCounters fills the per-layer metrics derived from public counters
// over [a, b], normalised by units (jobs, requests or drained messages).
func layerCounters(m map[string]float64, a, b counters, units float64) {
	processed := float64(b.eng.Processed - a.eng.Processed)
	evals := float64(b.eng.RulesEvaluated - a.eng.RulesEvaluated)
	batches := float64(b.eng.BatchesClaimed - a.eng.BatchesClaimed)
	m["engine.avg_batch"] = ratio(processed, batches)
	m["engine.rules_per_msg"] = ratio(evals, processed)
	m["engine.fired_ratio"] = ratio(float64(b.eng.RulesFired-a.eng.RulesFired), evals)
	m["engine.deadlocks_per_msg"] = ratio(float64(b.eng.Deadlocks-a.eng.Deadlocks), processed)

	hits := float64(b.ms.DocCacheHits - a.ms.DocCacheHits)
	misses := float64(b.ms.DocCacheMisses - a.ms.DocCacheMisses)
	m["msgstore.doc_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["msgstore.payload_bytes_per_msg"] = ratio(float64(b.ms.PayloadEncodedBytes+b.ms.PayloadTextBytes-a.ms.PayloadEncodedBytes-a.ms.PayloadTextBytes), units)

	m["store.fsyncs_per_msg"] = ratio(float64(b.ps.WALFsyncs-a.ps.WALFsyncs), units)
	m["store.commits_per_msg"] = ratio(float64(b.ps.Commits-a.ps.Commits), units)
	m["store.coalesced_ratio"] = ratio(float64(b.ps.WALCoalesced-a.ps.WALCoalesced), float64(b.ps.WALFlushCalls-a.ps.WALFlushCalls))
	m["store.wal_bytes_per_msg"] = ratio(float64(b.ps.LogBytes-a.ps.LogBytes), units)
	bh := float64(b.ps.BufferHits - a.ps.BufferHits)
	bm := float64(b.ps.BufferMisses - a.ps.BufferMisses)
	m["store.buffer_hit_ratio"] = ratio(bh, bh+bm)
	m["store.checkpoints"] = float64(b.ps.Checkpoints - a.ps.Checkpoints)
}

// measureRestart measures the restart of a node that was shut down
// cleanly: ten reopens through engine.New, and in a traced run the page
// store and message store alone. It checks that the recovered node holds
// no unprocessed message and leaves it shut down.
func measureRestart(o *outcome, opts nodeOptions, layers bool) error {
	logs := &countingHandler{}
	opts.logger = slogFor(logs)
	rt, e, err := measureReopen(opts, 10, layers)
	if err != nil {
		return err
	}
	o.layer["engine.reopen_cpu_s"] = rt.engineCPU
	o.wall["reopen_s"] = rt.engineOpen
	if layers {
		o.layer["store.open_s"] = rt.storeOpen
		o.layer["store.recovery_replayed"] = float64(rt.replayed)
		o.layer["msgstore.open_s"] = rt.msgstoreOpen
		o.layer["engine.open_s"] = rt.engineOpen - rt.msgstoreOpen
	}
	o.notes = append(o.notes, fmt.Sprintf("reopen: wall %.4fs, CPU %.4fs; Stats.LastRecovery=%v", rt.engineOpen, rt.engineCPU, rt.lastRecovery))
	checkQuiescent(o, e)
	if err := e.Stop(); err != nil {
		return err
	}
	logs.report(o)
	return nil
}

// gcStats times retention GC passes made through Engine.CollectGarbage.
type gcStats struct {
	mu        sync.Mutex
	ms        []float64
	collected int
	err       error
}

func (g *gcStats) pass(e *engine.Engine, tr *tracer) {
	t0 := time.Now()
	c, err := e.CollectGarbage()
	t1 := time.Now()
	tr.add("slicing.gc", "slicing", 0, -1, t0, t1)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ms = append(g.ms, ms(t1.Sub(t0)))
	g.collected += c
	if err != nil && g.err == nil {
		g.err = err
	}
}

// on runs a pass each time kick fires until the returned stop function is
// called; stop waits for the running pass to finish.
func (g *gcStats) on(e *engine.Engine, tr *tracer, kick <-chan struct{}) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-kick:
				g.pass(e, tr)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

func (g *gcStats) reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ms, g.collected = nil, 0
}

func (g *gcStats) metrics(m map[string]float64, units float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m["slicing.gc_ms_p50"] = median(g.ms)
	m["slicing.collected_per_req"] = ratio(float64(g.collected), units)
}
