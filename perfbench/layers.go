package main

import (
	"fmt"
	"time"

	"demaq/internal/rule"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

// The xquery and xmldom layers are measured the way experiment E11 does
// it: each rule of the workload's application is compiled and evaluated
// on a sample of the workload's own documents, and the documents are
// encoded, decoded and serialized through the public xmldom calls, with
// the store and scheduler out of the loop.

// sampleDoc is one document a unit of work (a job, a request, a backlog
// message) puts through the node.
type sampleDoc struct {
	queue   string
	wire    string
	ingest  bool // arrives from outside: stream-encoded from its wire form
	egress  bool // leaves through an outgoing gateway: serialized
	props   map[string]xdm.Value
	slicing string   // slicing whose rules it triggers, if any
	key     string   // its slice key
	slice   []string // the slice's documents when it arrives
}

// stubRuntime answers the rule runtime's queries from the sample.
type stubRuntime struct {
	doc    *xmldom.Node
	props  map[string]xdm.Value
	queue  string
	queues map[string][]*xmldom.Node
	slice  []*xmldom.Node
	key    string
	colls  map[string][]*xmldom.Node
}

func (r *stubRuntime) Message() (*xmldom.Node, error) { return r.doc, nil }
func (r *stubRuntime) Queue(name string) ([]*xmldom.Node, error) {
	if name == "" {
		name = r.queue
	}
	return r.queues[name], nil
}
func (r *stubRuntime) Property(name string) (xdm.Value, error) {
	if v, ok := r.props[name]; ok {
		return v, nil
	}
	return xdm.Value{}, fmt.Errorf("no property %q", name)
}
func (r *stubRuntime) Slice() ([]*xmldom.Node, error) { return r.slice, nil }
func (r *stubRuntime) SliceKey() (xdm.Value, error)   { return xdm.NewString(r.key), nil }
func (r *stubRuntime) Collection(name string) ([]*xmldom.Node, error) {
	return r.colls[name], nil
}
func (r *stubRuntime) Now() time.Time { return time.Unix(0, 0).UTC() }

type parsedDoc struct {
	sampleDoc
	tree  *xmldom.Node
	enc   []byte
	slice []*xmldom.Node
}

// measureDocLayers fills xquery.eval_us_per_msg, xmldom.encode_us_per_msg,
// xmldom.decode_us_per_msg and xmldom.serialize_us_per_msg: microseconds
// per unit of work, over repeated passes of at least 200 ms in total.
func measureDocLayers(m map[string]float64, prog *rule.Program, proj func(string) *xmldom.Projection,
	units [][]sampleDoc, queues, colls map[string][]*xmldom.Node) error {
	var docs []parsedDoc
	for _, u := range units {
		for _, d := range u {
			pd := parsedDoc{sampleDoc: d}
			var err error
			if pd.tree, err = xmldom.ParseString(d.wire); err != nil {
				return fmt.Errorf("sample %s: %w", d.wire, err)
			}
			if d.ingest {
				if pd.enc, err = xmldom.StreamEncode(nil, []byte(d.wire), proj(d.queue)); err != nil {
					return err
				}
			} else {
				pd.enc = xmldom.Encode(pd.tree)
			}
			for _, s := range d.slice {
				t, err := xmldom.ParseString(s)
				if err != nil {
					return err
				}
				pd.slice = append(pd.slice, t)
			}
			docs = append(docs, pd)
		}
	}
	var enc, dec, ser, eval time.Duration
	var buf []byte
	var evalErr error
	passes := 0
	for start := time.Now(); passes < 3 || time.Since(start) < 200*time.Millisecond; passes++ {
		for i := range docs {
			d := &docs[i]
			t0 := time.Now()
			if d.ingest {
				buf, _ = xmldom.StreamEncode(buf[:0], []byte(d.wire), proj(d.queue))
			}
			t1 := time.Now()
			if _, err := xmldom.Decode(d.enc); err != nil && evalErr == nil {
				evalErr = err
			}
			t2 := time.Now()
			if d.egress {
				buf = xmldom.AppendSerialize(buf[:0], d.tree)
			}
			t3 := time.Now()
			rt := &stubRuntime{doc: d.tree, props: d.props, queue: d.queue, queues: queues,
				slice: d.slice, key: d.key, colls: colls}
			names := rule.ElementNames(d.tree)
			var rules []*rule.Rule
			if plan := prog.QueuePlans[d.queue]; plan != nil {
				rules = plan.RulesFor(names)
			}
			if plan := prog.SlicePlans[d.slicing]; plan != nil && d.slicing != "" {
				rules = append(rules, plan.RulesFor(names)...)
			}
			for _, r := range rules {
				if _, _, err := xquery.Eval(r.Body, rt, xquery.EvalOptions{ContextDoc: d.tree}); err != nil && evalErr == nil {
					evalErr = fmt.Errorf("rule %s on %s: %w", r.Name, d.wire, err)
				}
			}
			t4 := time.Now()
			enc += t1.Sub(t0)
			dec += t2.Sub(t1)
			ser += t3.Sub(t2)
			eval += t4.Sub(t3)
		}
	}
	n := float64(passes * len(units))
	m["xmldom.encode_us_per_msg"] = us(enc) / n
	m["xmldom.decode_us_per_msg"] = us(dec) / n
	m["xmldom.serialize_us_per_msg"] = us(ser) / n
	m["xquery.eval_us_per_msg"] = us(eval) / n
	return evalErr
}

// measureRTDocLayers samples 200 jobs: the job arrives on the incoming
// gateway, the checked document on the work queue, and the result leaves
// through the outgoing gateway.
func measureRTDocLayers(m map[string]float64, n *rtNode) error {
	g := &rtGen{rng: n.gens[0].rng, client: 0}
	var units [][]sampleDoc
	for i := 0; i < 200; i++ {
		id, wire, sum := g.next()
		items := string(between(wire, "<items>", "</items>"))
		units = append(units, []sampleDoc{
			{queue: "in", wire: string(wire), ingest: true},
			{queue: "work", wire: fmt.Sprintf("<checked><id>%d</id><items>%s</items></checked>", id, items)},
			{queue: "out", wire: fmt.Sprintf("<result><id>%d</id><sum>%v</sum></result>", id, sum), egress: true},
		})
	}
	return measureDocLayers(m, n.e.Program(), n.e.Projection, units, nil, nil)
}

// measureProcDocLayers samples 100 requests with every document the
// procurement rules create for them (Figs. 5-8 and the tap), evaluated
// against the preloaded invoices, the pricelist and each request's slice.
func measureProcDocLayers(m map[string]float64, n *procNode) error {
	g := &procGen{rng: n.gen.rng, data: n.data, n: n.gen.n}
	var units [][]sampleDoc
	crm := []*xmldom.Node{}
	for i := 0; i < 100; i++ {
		r := g.next()
		var items string
		total, restricted := 0, ""
		for _, it := range r.items {
			items += itemXML(it)
			total += it.qty
			if it.restricted {
				restricted += "<restrictedItem>" + it.sku + "</restrictedItem>"
			}
		}
		rid := "<requestID>" + r.rid + "</requestID>"
		credit, capacity := "<accept/>", "<accept/>"
		if n.data.open[r.customer] {
			credit = "<refuse/>"
		}
		if total >= 1000 {
			capacity = "<exceeded/>"
		}
		answer := "<refusal>" + rid + "</refusal>"
		if r.offer {
			answer = "<offer>" + rid + "<items>" + items + "</items><discount>" + n.data.discount + "</discount></offer>"
		}
		request := r.wire()
		results := []string{
			fmt.Sprintf("<customerInfoResult>%s<customerID>%d</customerID>%s</customerInfoResult>", rid, r.customer, credit),
			"<restrictionsResult>" + rid + restricted + "</restrictionsResult>",
			"<capacityResult>" + rid + capacity + "</capacityResult>",
		}
		slice := []string{request}
		u := []sampleDoc{{queue: "crm", wire: request, ingest: true, slicing: "requestMsgs", key: r.rid, slice: slice}}
		u = append(u,
			sampleDoc{queue: "finance", wire: fmt.Sprintf("<requestCustomerInfo>%s<customerID>%d</customerID></requestCustomerInfo>", rid, r.customer)},
			sampleDoc{queue: "legal", wire: "<exportRestrictionsInfo>" + rid + "<items>" + items + "</items></exportRestrictionsInfo>"},
			sampleDoc{queue: "supplier", wire: "<plantCapacityInfo>" + rid + "<items>" + items + "</items></plantCapacityInfo>"})
		for _, res := range results {
			slice = append(slice[:len(slice):len(slice)], res)
			u = append(u, sampleDoc{queue: "crm", wire: res, slicing: "requestMsgs", key: r.rid, slice: slice})
		}
		slice = append(slice[:len(slice):len(slice)], answer)
		u = append(u,
			sampleDoc{queue: "customer", wire: answer, slicing: "requestMsgs", key: r.rid, slice: slice},
			sampleDoc{queue: "answers", wire: "<answer>" + answer + "</answer>", egress: true})
		units = append(units, u)
		if len(crm) < 100 {
			t, err := xmldom.ParseString(request)
			if err != nil {
				return err
			}
			crm = append(crm, t)
		}
	}
	var invoices []*xmldom.Node
	for _, s := range n.data.invoices {
		t, err := xmldom.ParseString(s)
		if err != nil {
			return err
		}
		invoices = append(invoices, t)
	}
	pricelist, err := xmldom.ParseString("<pricelist><discount>" + n.data.discount + "</discount></pricelist>")
	if err != nil {
		return err
	}
	return measureDocLayers(m, n.e.Program(), n.e.Projection, units,
		map[string][]*xmldom.Node{"invoices": invoices, "crm": crm},
		map[string][]*xmldom.Node{"crm": {pricelist}})
}
