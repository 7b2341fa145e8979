package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"demaq/internal/engine"
	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/xdm"
)

// blApp routes a deep backlog three ways: an index-probed property
// predicate (route = hot), a value predicate on the payload (amount above
// a threshold) and a correlation slicing (corr).
const blApp = `
create queue inbox kind basic mode persistent;
create queue hot kind basic mode persistent;
create queue big kind basic mode persistent;
create property route as xs:string queue inbox value //route;
create property corr as xs:string queue inbox value //corr;
create slicing byCorr on corr;
create rule hotRoute for inbox
  if (qs:property("route") = "hot") then do enqueue <hit>{//id/text()}</hit> into hot;
create rule bigAmount for inbox
  if (//amount > 960) then do enqueue <big>{//id/text()}</big> into big;
`

const (
	blBacklog  = 100_000
	blHotShare = 0.03 // route = hot
	blBigOver  = 960  // amounts are 1-1000, so 4% are big
	blGroup    = 50   // messages per correlation key, on average
	blSetups   = 3
)

// blMsg is one backlog message as the generator made it.
type blMsg struct {
	hot    bool
	amount int
	corr   string
}

func blGenerate(seed int64, n int) []blMsg {
	rng := rand.New(rand.NewSource(seed*15485863 + 5))
	keys := n / blGroup
	if keys < 1 {
		keys = 1
	}
	msgs := make([]blMsg, n)
	for i := range msgs {
		msgs[i] = blMsg{hot: rng.Float64() < blHotShare, amount: 1 + rng.Intn(1000), corr: fmt.Sprintf("k%d", rng.Intn(keys))}
	}
	return msgs
}

func (m blMsg) wire(i int) string {
	route := "cold"
	if m.hot {
		route = "hot"
	}
	return fmt.Sprintf("<order><id>%d</id><route>%s</route><corr>%s</corr><amount>%d</amount>"+
		"<lines><line n=\"1\">%s</line><line n=\"2\">%s</line><line n=\"3\">%s</line></lines></order>",
		i, route, m.corr, m.amount, words[i%len(words)], words[(i/7)%len(words)], strings.Repeat("x", 40+i%80))
}

type blRun struct {
	p     params
	app   *qdl.Application
	msgs  []blMsg
	ids   []msgstore.MsgID // preload index → message id
	snap  string           // the cleanly shut down, preloaded store
	logs  *countingHandler
	trace *tracer
	vfs   *countingVFS
}

func runBacklog(p params) (*outcome, error) {
	o := newOutcome()
	n, setups := blBacklog, blSetups
	if p.short {
		n, setups = 5000, 2
	}
	app, err := qdl.Parse(blApp)
	if err != nil {
		return nil, err
	}
	b := &blRun{p: p, app: app, logs: &countingHandler{}}
	if p.trace {
		b.trace = newTracer()
		b.vfs = newCountingVFS(b.trace)
	}
	var clock setupClock
	for i := 0; i < setups; i++ {
		if b.snap != "" {
			if err := os.RemoveAll(b.snap); err != nil {
				return nil, err
			}
		}
		clock.start()
		if err := b.preload(n, i); err != nil {
			return nil, err
		}
		clock.stop()
	}
	clock.report(o)

	// Reopen-and-drain cycles on fresh copies of the preloaded store, until
	// the timed time reaches the run length. In a traced run the first
	// cycle is untraced, for the overhead figure, and at least one traced
	// cycle follows.
	minCycles := 1
	if p.trace {
		minCycles = 2
	}
	var cycles []blCycle
	var score []float64
	var timed time.Duration
	var untracedRate float64
	for cycle := 0; cycle < minCycles || timed < p.dur; cycle++ {
		traced := p.trace && cycle > 0
		if b.trace != nil {
			b.trace.on.Store(traced)
		}
		c, err := b.cycle(o, cycle, traced)
		if err != nil {
			return nil, err
		}
		timed += c.reopen + c.drain
		if p.trace && !traced {
			untracedRate = float64(n) / c.drain.Seconds()
			continue
		}
		if traced {
			for k, v := range c.layer {
				o.layer[k] = v
			}
		}
		cycles = append(cycles, c)
		score = append(score, (c.reopen + c.drain).Seconds())
	}
	if b.trace != nil {
		b.trace.on.Store(false)
	}
	// CPU time and heap are medians over every cycle; the wall-clock
	// figures come from the faster quarter of the cycles (see calmest).
	var reopenCPU, cpus, heaps, reopens, rates, e2e []float64
	keep := calmest(score)
	for i, c := range cycles {
		reopenCPU = append(reopenCPU, c.reopenCPU.Seconds())
		cpus = append(cpus, us(c.cpu)/float64(n))
		heaps = append(heaps, c.heap)
		if keep[i] {
			reopens = append(reopens, c.reopen.Seconds())
			rates = append(rates, float64(n)/c.drain.Seconds())
			e2e = append(e2e, c.e2e...)
		}
	}
	o.e2e["cpu_us_per_msg"] = median(cpus)
	o.layer["engine.reopen_cpu_s"] = median(reopenCPU)
	o.e2e["heap_mb"] = median(heaps)
	o.wall["reopen_s"] = median(reopens)
	o.wall["throughput_msgs_s"] = median(rates)
	o.wall["e2e_p50_ms"], o.wall["e2e_p99_ms"] = quantile(e2e, 0.5), quantile(e2e, 0.99)
	o.notes = append(o.notes, fmt.Sprintf("backlog %d messages, %d timed reopen+drain cycles (%d kept), %.2fs timed", n, len(cycles), len(rates), timed.Seconds()))
	if p.trace {
		o.layer["trace.overhead_throughput"] = ratio(untracedRate-median(rates), untracedRate)
	}
	b.logs.report(o)
	if err := os.RemoveAll(b.snap); err != nil {
		return nil, err
	}
	return finishTrace(o, p, b.trace, "backlog-restart")
}

// preload builds the backlog through the public enqueue call with
// unsynced commits, then shuts the node down cleanly.
func (b *blRun) preload(n, idx int) error {
	b.snap = filepath.Join(b.p.dataDir, fmt.Sprintf("backlog-snap-%d", idx))
	b.msgs = blGenerate(b.p.seed, n)
	b.ids = make([]msgstore.MsgID, n)
	e, err := openNode(nodeOptions{dir: b.snap, app: b.app, noSync: true, logger: slogFor(b.logs)})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 2 {
				id, err := e.EnqueueXML("inbox", b.msgs[i].wire(i), nil)
				if err != nil {
					errs[g] = err
					return
				}
				b.ids[i] = id
			}
		}(g)
	}
	wg.Wait()
	if err := e.Stop(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

type blCycle struct {
	reopen, drain time.Duration
	reopenCPU     time.Duration // CPU time of the reopening thread
	cpu           time.Duration // process CPU time during the drain
	heap          float64
	e2e           []float64 // ms from the restart to each result
	layer         map[string]float64
}

// cycle copies the preloaded store, reopens it (timed), checks the
// recovered backlog, drains it with durable commits (timed) and checks the
// results.
func (b *blRun) cycle(o *outcome, k int, traced bool) (blCycle, error) {
	c := blCycle{layer: map[string]float64{}}
	dir := filepath.Join(b.p.dataDir, fmt.Sprintf("backlog-cycle-%d", k))
	if err := copyDir(b.snap, dir); err != nil {
		return c, err
	}
	opts := nodeOptions{dir: dir, app: b.app, logger: slogFor(b.logs)}
	if traced {
		opts.vfs = b.vfs
		rt, e, err := measureReopen(opts, 1, true)
		if err != nil {
			return c, err
		}
		if err := e.Stop(); err != nil {
			return c, err
		}
		c.layer["store.open_s"] = rt.storeOpen
		c.layer["store.recovery_replayed"] = float64(rt.replayed)
		c.layer["msgstore.open_s"] = rt.msgstoreOpen
		// The measuring opens closed the store cleanly; start again from
		// an untouched copy so the timed reopen is the same restart.
		if err := os.RemoveAll(dir); err != nil {
			return c, err
		}
		if err := copyDir(b.snap, dir); err != nil {
			return c, err
		}
	}
	runtime.GC() // the copy's buffers are garbage; start from a collected heap
	t0 := time.Now()
	e, reopen, reopenCPU, err := timedOpen(opts)
	if err != nil {
		return c, err
	}
	c.reopen, c.reopenCPU = reopen, reopenCPU
	if traced {
		c.layer["engine.open_s"] = c.reopen.Seconds() - c.layer["msgstore.open_s"]
	}
	if k == 0 {
		o.notes = append(o.notes, fmt.Sprintf("reopen: wall %.4fs, CPU %.4fs; Stats.LastRecovery=%v, replayed=%d",
			c.reopen.Seconds(), c.reopenCPU.Seconds(), e.Stats().LastRecovery, e.Stats().RecoveryReplayed))
	}
	c.heap = heapMiB()
	b.checkRecovered(o, e)

	before := snapshot(e)
	var io0 ioMark
	var pol *poller
	if traced {
		io0 = b.vfs.mark()
		pol = startPoller(e, b.trace)
	}
	cpu0 := cpuTime()
	t1 := time.Now()
	e.Start()
	drained := e.Drain(120 * time.Second)
	c.drain = time.Since(t1)
	c.cpu = cpuTime() - cpu0
	o.check(drained, "backlog did not drain")
	if traced {
		pol.finish(c.layer)
		layerCounters(c.layer, before, snapshot(e), float64(len(b.msgs)))
		b.vfs.metrics(c.layer, io0, b.vfs.mark(), float64(len(b.msgs)))
		if err := measureBLDocLayers(c.layer, b, e); err != nil {
			o.notes = append(o.notes, "document-layer sample: "+err.Error())
		}
	}
	o.attempted += len(b.msgs)
	c.e2e = b.checkDrained(o, e, t0)
	checkQuiescent(o, e)
	if err := e.Stop(); err != nil {
		return c, err
	}
	return c, os.RemoveAll(dir)
}

// checkRecovered verifies that the reopened node holds exactly the
// preloaded messages, all unprocessed.
func (b *blRun) checkRecovered(o *outcome, e *engine.Engine) {
	msgs, err := e.MessageStore().Messages("inbox")
	if err != nil {
		o.fail("reopen: %v", err)
		return
	}
	o.check(len(msgs) == len(b.ids), "reopen: inbox holds %d messages, want %d", len(msgs), len(b.ids))
	want := make(map[msgstore.MsgID]bool, len(b.ids))
	for _, id := range b.ids {
		want[id] = true
	}
	for _, m := range msgs {
		o.check(want[m.ID], "reopen: unexpected message %d in inbox", m.ID)
		o.check(!m.Processed, "reopen: message %d already processed", m.ID)
	}
}

// checkDrained verifies the results against the generator's own
// predicates and grouping, and returns each result's latency from the
// start of the restart.
func (b *blRun) checkDrained(o *outcome, e *engine.Engine, restart time.Time) []float64 {
	ms := e.MessageStore()
	var lat []float64
	for _, q := range []struct {
		name string
		want func(blMsg) bool
	}{
		{"hot", func(m blMsg) bool { return m.hot }},
		{"big", func(m blMsg) bool { return m.amount > blBigOver }},
	} {
		var want []int
		for i, m := range b.msgs {
			if q.want(m) {
				want = append(want, i)
			}
		}
		msgs, err := ms.Messages(q.name)
		if err != nil {
			o.fail("%s: %v", q.name, err)
			continue
		}
		var got []int
		for _, m := range msgs {
			doc, err := ms.Doc(m.ID)
			if err != nil {
				o.fail("%s: message %d: %v", q.name, m.ID, err)
				continue
			}
			i, err := strconv.Atoi(doc.StringValue())
			if err != nil {
				o.fail("%s: result %q", q.name, doc.StringValue())
				continue
			}
			got = append(got, i)
			lat = append(lat, float64(m.Enqueued.Sub(restart))/float64(time.Millisecond))
		}
		sort.Ints(got)
		o.check(fmt.Sprint(got) == fmt.Sprint(want), "%s: %d results, want %d (ids differ)", q.name, len(got), len(want))
	}
	groups := map[string][]msgstore.MsgID{}
	for i, m := range b.msgs {
		groups[m.corr] = append(groups[m.corr], b.ids[i])
	}
	for key, ids := range groups {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		got := e.Slices().SliceMembers("byCorr", key)
		o.check(fmt.Sprint(got) == fmt.Sprint(ids), "slice byCorr/%s: %d members, want %d", key, len(got), len(ids))
	}
	return lat
}

// measureBLDocLayers samples 500 backlog messages through the inbox rules.
func measureBLDocLayers(m map[string]float64, b *blRun, e *engine.Engine) error {
	var units [][]sampleDoc
	for i := 0; i < 500 && i < len(b.msgs); i++ {
		msg := b.msgs[i]
		route := "cold"
		if msg.hot {
			route = "hot"
		}
		units = append(units, []sampleDoc{{queue: "inbox", wire: msg.wire(i), ingest: true,
			props: map[string]xdm.Value{"route": xdm.NewString(route), "corr": xdm.NewString(msg.corr)}}})
	}
	return measureDocLayers(m, e.Program(), e.Projection, units, nil, nil)
}
