package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"demaq/internal/engine"
	"demaq/internal/gateway"
	"demaq/internal/store"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers. Spans of one job or request share Job; Parent
// links a span to the span that contains it (0 = none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Job    int64  `json:"job"` // -1: not tied to one job
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends.
// Recording is switched on only for the traced phase, so the wrappers can
// stay installed through set-up and the untraced comparison phase.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span when tracing is on and returns its id (0 when off).
func (t *tracer) add(name, layer string, parent uint64, job int64, start, end time.Time) uint64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	id := t.next.Add(1)
	s := span{ID: id, Parent: parent, Name: name, Layer: layer, Job: job,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// layerSummary is the per-layer roll-up of the span file: how many spans,
// their total and self time (duration minus the part covered by child
// spans), and the wall time during which at least one was open.
type layerSummary struct {
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	BusyS  float64 `json:"busy_s"`
}

func (t *tracer) summarize() map[string]*layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerSummary{}
	intervals := map[string][][2]int64{}
	for _, s := range t.spans {
		ls := out[s.Layer]
		if ls == nil {
			ls = &layerSummary{}
			out[s.Layer] = ls
		}
		d := s.End - s.Start
		ls.Spans++
		ls.TotalS += float64(d) / 1e9
		ls.SelfS += float64(d-child[s.ID]) / 1e9
		intervals[s.Layer] = append(intervals[s.Layer], [2]int64{s.Start, s.End})
	}
	for layer, iv := range intervals {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var busy, curS, curE int64
		curS, curE = iv[0][0], iv[0][1]
		for _, x := range iv[1:] {
			if x[0] > curE {
				busy += curE - curS
				curS, curE = x[0], x[1]
			} else if x[1] > curE {
				curE = x[1]
			}
		}
		busy += curE - curS
		out[layer].BusyS = float64(busy) / 1e9
	}
	return out
}

// writeFiles writes the span file (one JSON object per line) and the
// per-layer summary next to it, returning the summary path.
func (t *tracer) writeFiles(base string, layers map[string]float64) (string, error) {
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	sum := map[string]any{"layers": t.summarize(), "metrics": layers}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return "", err
	}
	path := base + ".summary.json"
	return path, os.WriteFile(path, data, 0o644)
}

// tracedTransport wraps the simulated network the node's gateways use.
// Deliveries to the node's inbound endpoint are timed inside the node's
// receive handler (admission: dedup check, per-peer admit lock, durable
// enqueue); the node's sends of results to the receiver are timestamped.
// Acknowledgements (empty payloads) pass through untouched.
type tracedTransport struct {
	gateway.Transport
	tr *tracer

	// onAdmit and onOutSend map a payload to its job id and record the
	// job's timestamps; set before the node starts.
	onAdmit   func(payload []byte, enter, exit time.Time)
	onOutSend func(payload []byte, at time.Time)

	inflight atomic.Int64
	mu       sync.Mutex
	admitted []float64 // admit durations, µs
	conc     []float64 // deliveries in the handler at each entry
	lastOut  time.Time
	cycles   []float64 // gaps between successive outgoing transfers, µs
}

func (t *tracedTransport) Subscribe(addr string, h gateway.Handler) (func(), error) {
	if addr != nodeInAddr {
		return t.Transport.Subscribe(addr, h)
	}
	return t.Transport.Subscribe(addr, func(payload []byte, props map[string]string) error {
		if len(payload) == 0 || !t.tr.on.Load() {
			return h(payload, props)
		}
		n := t.inflight.Add(1)
		enter := time.Now()
		err := h(payload, props)
		exit := time.Now()
		t.inflight.Add(-1)
		t.mu.Lock()
		t.admitted = append(t.admitted, us(exit.Sub(enter)))
		t.conc = append(t.conc, float64(n))
		t.mu.Unlock()
		if err == nil && t.onAdmit != nil {
			t.onAdmit(payload, enter, exit)
		}
		return err
	})
}

func (t *tracedTransport) Send(dest string, payload []byte, props map[string]string) error {
	if dest == receiverAddr && len(payload) > 0 && t.tr.on.Load() {
		now := time.Now()
		t.mu.Lock()
		if !t.lastOut.IsZero() {
			t.cycles = append(t.cycles, us(now.Sub(t.lastOut)))
		}
		t.lastOut = now
		t.mu.Unlock()
		if t.onOutSend != nil {
			t.onOutSend(payload, now)
		}
	}
	return t.Transport.Send(dest, payload, props)
}

func (t *tracedTransport) metrics(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m["gateway.admit_us_p50"] = quantile(t.admitted, 0.5)
	m["gateway.admit_us_p99"] = quantile(t.admitted, 0.99)
	var sum float64
	for _, c := range t.conc {
		sum += c
	}
	m["gateway.admit_inflight_avg"] = ratio(sum, float64(len(t.conc)))
	m["gateway.out_cycle_us_p50"] = quantile(t.cycles, 0.5)
}

// countingVFS wraps the page store's filesystem: it counts bytes read and
// written and times every fsync (one span each while tracing is on).
type countingVFS struct {
	inner      store.VFS
	tr         *tracer
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	mu         sync.Mutex
	fsyncs     []float64 // µs, traced phase only
	fsyncBusy  time.Duration
}

func newCountingVFS(tr *tracer) *countingVFS {
	return &countingVFS{inner: store.OSFileSystem(), tr: tr}
}

func (v *countingVFS) OpenFile(path string) (store.File, error) {
	f, err := v.inner.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, v: v}, nil
}
func (v *countingVFS) Remove(path string) error             { return v.inner.Remove(path) }
func (v *countingVFS) ReadDir(dir string) ([]string, error) { return v.inner.ReadDir(dir) }

type countingFile struct {
	store.File
	v *countingVFS
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.v.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.v.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	t1 := time.Now()
	if f.v.tr.add("store.fsync", "store", 0, -1, t0, t1) != 0 {
		f.v.mu.Lock()
		f.v.fsyncs = append(f.v.fsyncs, us(t1.Sub(t0)))
		f.v.fsyncBusy += t1.Sub(t0)
		f.v.mu.Unlock()
	}
	return err
}

// ioMark is a byte-counter snapshot.
type ioMark struct{ read, write int64 }

func (v *countingVFS) mark() ioMark { return ioMark{v.readBytes.Load(), v.writeBytes.Load()} }

func (v *countingVFS) metrics(m map[string]float64, a, b ioMark, units float64) {
	v.mu.Lock()
	m["store.fsync_us_p50"] = quantile(v.fsyncs, 0.5)
	m["store.fsync_us_p99"] = quantile(v.fsyncs, 0.99)
	m["store.fsync_busy_s"] = v.fsyncBusy.Seconds()
	v.mu.Unlock()
	m["store.read_bytes_per_msg"] = ratio(float64(b.read-a.read), units)
	m["store.write_bytes_per_msg"] = ratio(float64(b.write-a.write), units)
}

// poller samples engine counters while the traced phase runs: the deepest
// scheduler backlog, and the duration of every checkpoint that completed
// (engine.Stats reports the last checkpoint's duration and a count).
type poller struct {
	stop       chan struct{}
	done       chan struct{}
	backlogMax int
	ckptMs     []float64
}

func startPoller(e *engine.Engine, tr *tracer) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		last := e.Stats().Checkpoints
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				st := e.Stats()
				if st.Backlog > p.backlogMax {
					p.backlogMax = st.Backlog
				}
				if st.Checkpoints != last {
					last = st.Checkpoints
					p.ckptMs = append(p.ckptMs, ms(st.LastCheckpoint))
					now := time.Now()
					tr.add("store.checkpoint", "store", 0, -1, now.Add(-st.LastCheckpoint), now)
				}
			}
		}
	}()
	return p
}

// finish stops the poller and waits for it.
func (p *poller) finish(m map[string]float64) {
	close(p.stop)
	<-p.done
	m["engine.backlog_max"] = float64(p.backlogMax)
	m["store.ckpt_ms"] = median(p.ckptMs)
}

// tracePath is where the traced run writes its files.
func tracePath(p params, workload string) (string, error) {
	dir := filepath.Join(filepath.Dir(p.dataDir), "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s/%s-seed%d", dir, workload, p.seed), nil
}
