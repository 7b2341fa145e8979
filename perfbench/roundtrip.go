package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"demaq/internal/engine"
	"demaq/internal/gateway"
	"demaq/internal/qdl"
)

// rtApp is the gateway round trip: a reliable incoming gateway, two rule
// stages (the second computes the sum of the job's item quantities) and a
// reliable outgoing gateway to the benchmark's receiver.
const rtApp = `
create queue in kind incomingGateway mode persistent
  interface node.wsdl port InPort
  using WS-ReliableMessaging policy rm.xml;
create queue work kind basic mode persistent;
create queue out kind outgoingGateway mode persistent
  interface recv.wsdl port OutPort
  using WS-ReliableMessaging policy rm.xml;
create queue errors kind basic mode persistent;
create rule acceptJob for in errorqueue errors
  if (//job) then do enqueue <checked>{//job/id}{//job/items}</checked> into work;
create rule totalJob for work errorqueue errors
  if (//checked) then
    do enqueue <result>{//checked/id}<sum>{sum(//item/qty)}</sum></result> into out;
`

const (
	rtClients    = 2
	rtWindow     = 8               // jobs each client keeps in flight end to end
	rtWarmup     = 512             // jobs per client and set-up, before the timed phase
	rtSetups     = 3               // set-ups per run; setup_s is their median
	rtCheckpoint = 2 * time.Second // several fuzzy checkpoints in every run
	rtGCJobs     = 2048            // jobs completed between retention passes
)

// rtJob is one job's record: what the benchmark expects and when each
// boundary was crossed.
type rtJob struct {
	id      int64
	client  int
	want    float64
	sent    time.Time
	acked   time.Time
	admitIn time.Time // first admission of the job (traced phase)
	admitEx time.Time
	outSend time.Time // the node's first outgoing transfer of the result
	recv    time.Time
	results int
	err     string
}

// rtGen makes the jobs of one client from the seed: 1-8 items with
// quantities 1-500 and a free-text note, about half a kilobyte each.
type rtGen struct {
	rng    *rand.Rand
	client int
	n      int
}

var words = strings.Fields("alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima mike november oscar papa quebec romeo sierra tango")

func (g *rtGen) next() (id int64, wire []byte, sum float64) {
	id = int64(g.n*rtClients + g.client)
	g.n++
	var b strings.Builder
	fmt.Fprintf(&b, "<job><id>%d</id><client>%d</client><items>", id, g.client)
	for i, n := 0, 1+g.rng.Intn(8); i < n; i++ {
		q := 1 + g.rng.Intn(500)
		sum += float64(q)
		fmt.Fprintf(&b, `<item sku="S%04d"><qty>%d</qty></item>`, g.rng.Intn(10000), q)
	}
	b.WriteString("</items><note>")
	for i, n := 0, 20+g.rng.Intn(40); i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(words[g.rng.Intn(len(words))])
	}
	b.WriteString("</note></job>")
	return id, []byte(b.String()), sum
}

// between returns the text between the first open and close markers.
func between(b []byte, open, close string) []byte {
	i := bytes.Index(b, []byte(open))
	if i < 0 {
		return nil
	}
	rest := b[i+len(open):]
	j := bytes.Index(rest, []byte(close))
	if j < 0 {
		return nil
	}
	return rest[:j]
}

func jobID(payload []byte) (int64, bool) {
	id, err := strconv.ParseInt(string(between(payload, "<id>", "</id>")), 10, 64)
	return id, err == nil
}

// rtNode is one set-up: a node, its network, two clients and a receiver.
type rtNode struct {
	dir    string
	net    *gateway.Network
	tt     *tracedTransport
	vfs    *countingVFS
	logs   *countingHandler
	opts   nodeOptions
	e      *engine.Engine
	cl     [rtClients]*gateway.Reliable
	recv   *gateway.Reliable
	gens   [rtClients]*rtGen
	slots  [rtClients]chan struct{}
	mu     sync.Mutex
	jobs   map[int64]*rtJob
	done   atomic.Int64  // results received
	gcKick chan struct{} // one send per rtGCJobs results
}

func runRoundtrip(p params) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	warmup, setups := rtWarmup, rtSetups
	if p.short {
		warmup, setups = 16, 2
	}
	var clock setupClock
	var n *rtNode
	for i := 0; i < setups; i++ {
		if n != nil {
			if err := n.close(o); err != nil {
				return nil, err
			}
		}
		clock.start()
		var err error
		n, err = newRTNode(p, tr, i)
		if err != nil {
			return nil, err
		}
		n.phase(0, warmup)
		clock.stop()
	}
	clock.report(o)
	if err := n.restart(o, p.trace); err != nil {
		return nil, err
	}
	// Retention GC runs as on a production node, so the heap and the store
	// hold the jobs in flight, not every job the run has completed. A pass
	// follows every rtGCJobs results rather than every interval, so that
	// what the store holds between passes, and with it the buffer pool and
	// heap_mb, does not follow the machine's speed.
	var gc gcStats
	stopGC := gc.on(n.e, tr, n.gcKick)

	// The timed phase. A traced run first repeats it untraced for half
	// the time, so that the tracing overhead is measured in the same run.
	var untraced rtPhase
	var before counters
	var io0 ioMark
	var pol *poller
	if p.trace {
		untraced = n.phase(p.dur/2, 0)
		before, io0 = snapshot(n.e), n.vfs.mark()
		gc.reset()
		tr.on.Store(true)
		pol = startPoller(n.e, tr)
	}
	timed := p.dur
	if p.trace {
		timed -= p.dur / 2
	}
	cpu0 := cpuTime()
	ph := n.phase(timed, 0)
	o.e2e["cpu_us_per_msg"] = ratio(us(cpuTime()-cpu0), float64(len(ph.traced)))
	if p.trace {
		pol.finish(o.layer)
		layerCounters(o.layer, before, snapshot(n.e), float64(ph.completed))
		n.vfs.metrics(o.layer, io0, n.vfs.mark(), float64(ph.completed))
		n.tt.metrics(o.layer)
		gc.metrics(o.layer, float64(ph.completed))
		n.tilings(o, ph, tr)
		o.layer["trace.overhead_e2e_p50"] = ratio(ph.e2eP50-untraced.e2eP50, untraced.e2eP50)
		o.layer["trace.overhead_throughput"] = ratio(untraced.rate-ph.rate, untraced.rate)
		tr.on.Store(false)
	}
	stopGC()
	o.check(gc.err == nil, "CollectGarbage: %v", gc.err)
	o.wall["throughput_msgs_s"] = ph.rate
	o.wall["e2e_p50_ms"], o.wall["e2e_p99_ms"] = ph.e2eP50, ph.e2eP99
	o.wall["ack_p50_ms"], o.wall["ack_p99_ms"] = ph.ackP50, ph.ackP99
	o.notes = append(o.notes, fmt.Sprintf("timed phase: %d jobs completed in %.2fs (%d clients x window %d)",
		ph.completed, ph.window.Seconds(), rtClients, rtWindow))

	// Every job ever sent must have produced exactly one correct result.
	if !n.e.Drain(30 * time.Second) {
		o.fail("engine did not become idle after the run")
	}
	n.verifyJobs(o)
	checkQuiescent(o, n.e, "errors")
	// The heap is taken after a last retention pass, so that it holds the
	// node's steady state, not the jobs of the last GC interval, and
	// without the benchmark's own job records.
	gc.pass(n.e, nil)
	n.mu.Lock()
	n.jobs, ph.traced, untraced.traced = nil, nil, nil
	n.mu.Unlock()
	o.e2e["heap_mb"] = heapMiB()
	if p.trace {
		if err := measureRTDocLayers(o.layer, n); err != nil {
			o.notes = append(o.notes, "document-layer sample: "+err.Error())
		}
		o.layer["gateway.retransmits"] = float64(n.retransmits())
	}
	if err := n.close(o); err != nil {
		return nil, err
	}
	return finishTrace(o, p, tr, "gateway-roundtrip")
}

func newRTNode(p params, tr *tracer, idx int) (*rtNode, error) {
	n := &rtNode{
		dir:    filepath.Join(p.dataDir, fmt.Sprintf("roundtrip-%d", idx)),
		net:    gateway.NewNetwork(p.seed),
		logs:   &countingHandler{},
		jobs:   map[int64]*rtJob{},
		gcKick: make(chan struct{}, 1),
	}
	var nodeTr gateway.Transport = n.net
	if tr != nil {
		n.tt = &tracedTransport{Transport: n.net, tr: tr, onAdmit: n.onAdmit, onOutSend: n.onOutSend}
		n.vfs = newCountingVFS(tr)
		nodeTr = n.tt
	}
	app, err := qdl.Parse(rtApp)
	if err != nil {
		return nil, err
	}
	n.opts = nodeOptions{
		dir: n.dir, app: app, resources: gatewayFiles,
		transports: gateway.NewRegistry(nodeTr), checkpoint: rtCheckpoint,
		logger: slogFor(n.logs),
	}
	if n.vfs != nil {
		n.opts.vfs = n.vfs
	}
	if n.e, err = openNode(n.opts); err != nil {
		return nil, err
	}
	n.e.Start()
	if n.recv, err = gateway.NewReliable(n.net, receiverAddr, 250*time.Millisecond, 40); err != nil {
		return nil, err
	}
	if err := n.recv.Subscribe(n.onResult); err != nil {
		return nil, err
	}
	for c := 0; c < rtClients; c++ {
		addr := fmt.Sprintf("sim://client%d/acks", c)
		if n.cl[c], err = gateway.NewReliable(n.net, addr, 250*time.Millisecond, 40); err != nil {
			return nil, err
		}
		if err := n.cl[c].Subscribe(func([]byte, map[string]string) error { return nil }); err != nil {
			return nil, err
		}
		n.gens[c] = &rtGen{rng: rand.New(rand.NewSource(p.seed*7919 + int64(c))), client: c}
		n.slots[c] = make(chan struct{}, rtWindow)
	}
	return n, nil
}

func (n *rtNode) job(payload []byte) *rtJob {
	id, ok := jobID(payload)
	if !ok {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.jobs[id]
}

func (n *rtNode) onAdmit(payload []byte, enter, exit time.Time) {
	if j := n.job(payload); j != nil {
		n.mu.Lock()
		if j.admitIn.IsZero() {
			j.admitIn, j.admitEx = enter, exit
		}
		n.mu.Unlock()
	}
}

func (n *rtNode) onOutSend(payload []byte, at time.Time) {
	if j := n.job(payload); j != nil {
		n.mu.Lock()
		if j.outSend.IsZero() {
			j.outSend = at
		}
		n.mu.Unlock()
	}
}

// onResult is the receiver: it checks each result against the sum the
// benchmark computed from the job's payload and frees the client's slot.
func (n *rtNode) onResult(payload []byte, _ map[string]string) error {
	now := time.Now()
	id, ok := jobID(payload)
	n.mu.Lock()
	j := n.jobs[id]
	if !ok || j == nil {
		n.mu.Unlock()
		return nil // verifyJobs reports results nobody sent
	}
	j.results++
	first := j.results == 1
	if first {
		j.recv = now
		got, err := strconv.ParseFloat(string(between(payload, "<sum>", "</sum>")), 64)
		if err != nil || math.Abs(got-j.want) > 1e-9 {
			j.err = fmt.Sprintf("job %d: result %q, want sum %v", id, payload, j.want)
		}
	}
	n.mu.Unlock()
	if first {
		if n.done.Add(1)%rtGCJobs == 0 {
			select {
			case n.gcKick <- struct{}{}:
			default: // a pass is still pending
			}
		}
		<-n.slots[j.client]
	}
	return nil
}

type rtPhase struct {
	completed      int
	window         time.Duration
	rate           float64
	e2eP50, e2eP99 float64
	ackP50, ackP99 float64
	traced         []*rtJob
}

// phase runs the closed loop: for dur (or until each client has sent
// count jobs) every client keeps rtWindow jobs in flight, sending the next
// one when a result frees a slot. It then waits for the outstanding
// results. Its wall-clock figures come from the better quarter of its
// one-second windows.
func (n *rtNode) phase(dur time.Duration, count int) rtPhase {
	var ph rtPhase
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sent []*rtJob
	for c := 0; c < rtClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; count == 0 || k < count; k++ {
				select {
				case <-stop:
					return
				case n.slots[c] <- struct{}{}:
				}
				id, wire, sum := n.gens[c].next()
				j := &rtJob{id: id, client: c, want: sum}
				n.mu.Lock()
				n.jobs[id] = j
				j.sent = time.Now()
				n.mu.Unlock()
				mu.Lock()
				sent = append(sent, j)
				mu.Unlock()
				n.cl[c].SendAsync(nodeInAddr, wire, nil, func(err error) {
					n.mu.Lock()
					j.acked = time.Now()
					if err != nil {
						j.err = fmt.Sprintf("job %d: ack error: %v", id, err)
					}
					n.mu.Unlock()
				})
			}
		}(c)
	}
	if dur > 0 {
		time.Sleep(dur)
	} else {
		wg.Wait()
	}
	close(stop)
	end := time.Now()
	wg.Wait()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		busy := 0
		for c := range n.slots {
			busy += len(n.slots[c])
		}
		if busy == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if dur == 0 {
		end = time.Now()
	}
	ph.window = end.Sub(start)
	n.mu.Lock()
	defer n.mu.Unlock()
	w := newWindows(start, int(dur/windowLen))
	for _, j := range sent {
		if j.results == 0 || j.acked.IsZero() {
			continue // reported by verifyJobs
		}
		if !j.recv.After(end) {
			ph.completed++
		}
		w.add(j.sent, j.recv, ms(j.recv.Sub(j.sent)), ms(j.acked.Sub(j.sent)))
		ph.traced = append(ph.traced, j)
	}
	w.rank()
	ph.rate = w.rate()
	ph.e2eP50, ph.e2eP99 = w.quantile(0, 0.5), w.quantile(0, 0.99)
	ph.ackP50, ph.ackP99 = w.quantile(1, 0.5), w.quantile(1, 0.99)
	return ph
}

// verifyJobs checks that every job sent produced exactly one result, that
// its value is right and that its admission was acknowledged.
func (n *rtNode) verifyJobs(o *outcome) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id, j := range n.jobs {
		o.attempted++
		switch {
		case j.err != "":
			o.fail("%s", j.err)
		case j.results == 0:
			o.fail("job %d: no result", id)
		case j.results > 1:
			o.fail("job %d: %d results", id, j.results)
		case j.acked.IsZero():
			o.fail("job %d: admission never acknowledged", id)
		}
	}
}

func (n *rtNode) retransmits() uint64 {
	var total uint64
	for _, c := range n.cl {
		_, r, _ := c.Stats()
		total += r
	}
	_, _, dups := n.recv.Stats()
	return total + dups
}

// tilings splits each traced job's interval into its four segments:
// client send → admit entry, admit, admit exit → the node's outgoing send,
// outgoing send → receiver. The segments share their endpoints, so they
// tile the interval exactly. A worker may process a job and send its
// result before the admitting handler has returned; the admit segment
// then ends at the outgoing send and the stage segment is empty. The
// residue compares the sum of the segment medians with the median of the
// same jobs' end-to-end latency.
func (n *rtNode) tilings(o *outcome, ph rtPhase, tr *tracer) {
	var seg [4][]float64
	var stage, e2e []float64
	tiled := 0
	n.mu.Lock()
	for _, j := range ph.traced {
		admitEnd := j.admitEx
		if j.outSend.Before(admitEnd) {
			admitEnd = j.outSend
		}
		ts := []time.Time{j.sent, j.admitIn, admitEnd, j.outSend, j.recv}
		ok := true
		for i := 1; i < len(ts); i++ {
			if ts[i].IsZero() || ts[i].Before(ts[i-1]) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		tiled++
		root := tr.add("job", "client", 0, j.id, j.sent, j.recv)
		names := [4][2]string{{"seg.client_to_admit", "gateway"}, {"gateway.admit", "gateway"},
			{"engine.stage", "engine"}, {"seg.out_to_receiver", "gateway"}}
		for i := 0; i < 4; i++ {
			tr.add(names[i][0], names[i][1], root, j.id, ts[i], ts[i+1])
			seg[i] = append(seg[i], ms(ts[i+1].Sub(ts[i])))
		}
		stage = append(stage, us(j.outSend.Sub(admitEnd)))
		e2e = append(e2e, ms(j.recv.Sub(j.sent)))
	}
	n.mu.Unlock()
	m := o.layer
	m["engine.stage_us_p50"] = quantile(stage, 0.5)
	m["engine.stage_us_p99"] = quantile(stage, 0.99)
	m["trace.tiled_share"] = ratio(float64(tiled), float64(len(ph.traced)))
	e2eP50 := median(e2e)
	var sum float64
	for i, name := range []string{"client_to_admit", "admit", "stage", "out_to_receiver"} {
		med := median(seg[i])
		sum += med
		m["trace.seg_"+name+"_ms_p50"] = med
		m["trace.seg_"+name+"_share"] = ratio(med, e2eP50)
	}
	m["trace.residue_share"] = ratio(e2eP50-sum, e2eP50)
	if tiled < len(ph.traced) {
		o.notes = append(o.notes, fmt.Sprintf("tiling: %d of %d traced jobs had all four segments in order", tiled, len(ph.traced)))
	}
}

// restart shuts the node down cleanly, measures its restart and starts
// it again; clients, receiver and their sessions carry on. It runs on the
// state the set-ups leave, so that the restart figures do not grow with
// the timed phase's throughput, and before any retention GC: a restart after
// GC reissues message ids (known fault 3 in the README).
func (n *rtNode) restart(o *outcome, layers bool) error {
	drained, err := n.e.Shutdown(10 * time.Second)
	if err != nil {
		return err
	}
	o.check(drained, "node did not drain at shutdown")
	if err := measureRestart(o, n.opts, layers); err != nil {
		return err
	}
	if n.e, err = openNode(n.opts); err != nil {
		return err
	}
	n.e.Start()
	return nil
}

// close shuts the set-up down: clients and receiver first, then the node.
func (n *rtNode) close(o *outcome) error {
	for _, c := range n.cl {
		c.Close()
	}
	drained, err := n.e.Shutdown(10 * time.Second)
	n.recv.Close()
	n.net.Close()
	if err != nil {
		return err
	}
	o.check(drained, "node did not drain at shutdown")
	n.logs.report(o)
	return nil
}
