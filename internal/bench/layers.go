package bench

import (
	"encoding/binary"
	"sync"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/rib"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
	"github.com/evolvable-net/evolve/internal/tunnel"
)

// unitNS is how many nanoseconds one of a timing metric's units holds.
var unitNS = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// layersFromSpans files every per-layer timing metric that has spans:
// a span is named after the metric it feeds, and the metric is the
// median of the spans' per-operation times.
func (r *run) layersFromSpans(spans []Span) {
	by := PerOpByName(spans, r.spanCost)
	for _, m := range PerLayer {
		d, ok := by[m.Name]
		if !ok {
			continue
		}
		r.layer(m.Name, Median(d)/unitNS[m.Unit], len(d))
	}
	if r.post != nil {
		r.post(by)
	}
}

// probe times fn from outside: spans spans, each around ops calls.
func probe(rec *Recorder, layer, name string, spans, ops int, fn func(i int)) {
	i := 0
	for s := 0; s < spans; s++ {
		id := rec.BeginOps(0, layer, name, ops)
		for k := 0; k < ops; k++ {
			fn(i)
			i++
		}
		rec.End(id)
	}
}

// headerFor rebuilds the IPvN header core puts on a delivery's packets,
// from the delivery's own accounting.
func headerFor(evo *core.Evolution, d core.Delivery, dst *topology.Host, under, tag *[4]byte, opts []packet.Option) packet.VNHeader {
	hdr := packet.VNHeader{Version: evo.Config().Version, Src: d.SrcVN, Dst: d.DstVN}
	opts = opts[:0]
	if d.DstVN.IsSelf() {
		binary.BigEndian.PutUint32(under[:], uint32(dst.Addr))
		opts = append(opts, packet.Option{Type: packet.OptUnderlayDst, Value: under[:]})
	}
	binary.BigEndian.PutUint32(tag[:], d.TraceTag)
	hdr.Options = append(opts, packet.Option{Type: packet.OptTraceTag, Value: tag[:]})
	return hdr
}

// probeHeaders delivers once on f and returns the outer and inner
// headers its first tunnel leg carries, for probes that serialize them.
func probeHeaders(w *world, f flow, payload []byte) (packet.V4Header, packet.VNHeader, error) {
	d, err := w.evo.Send(f.src, f.dst, payload)
	if err != nil {
		return packet.V4Header{}, packet.VNHeader{}, err
	}
	var under, tag [4]byte
	inner := headerFor(w.evo, d, f.dst, &under, &tag, nil)
	outer := packet.V4Header{Proto: packet.ProtoVNEncap, Src: f.src.Addr, Dst: w.evo.AnycastAddr()}
	return outer, inner, nil
}

// shadow replays sampled deliveries from outside. The bench cannot open
// spans inside Send, so for a sampled flow it asks SendTraced which
// encapsulations and decapsulations the delivery made, then issues the
// same sequence of public layer calls itself, each in a child span.
// Their sum against the real Send span is the per-delivery budget.
type shadow struct {
	w          *world
	events     *trace.Recorder
	cur, other *tunnel.Endpoint
	counters   trace.Counters
	optCur     []packet.Option
	optOther   []packet.Option
	hdrOpts    []packet.Option
	under, tag [4]byte
	// sum is the child spans' per-delivery time, totalled over n
	// replays; spanCost is taken off each span first.
	sum, spanCost float64
	n             int
}

func newShadow(w *world, spanCost float64) *shadow {
	s := &shadow{
		w: w, spanCost: spanCost, events: trace.NewRecorder(),
		cur: tunnel.NewEndpoint(0), other: tunnel.NewEndpoint(0),
		optCur: make([]packet.Option, 0, 4), optOther: make([]packet.Option, 0, 4),
		hdrOpts: make([]packet.Option, 0, 2),
	}
	s.cur.Observe(nil, &s.counters, 0)
	s.other.Observe(nil, &s.counters, 0)
	return s
}

func (s *shadow) swap() {
	s.cur, s.other = s.other, s.cur
	s.optCur, s.optOther = s.optOther, s.optCur
}

// replayReps is how many times the replay repeats each call inside its
// span. A lone 100 ns call between two clock reads reads several times
// slower than the same call inside Send's warm loop; repeating it
// amortises the clock and warms the caches, so the figure is the call's
// cost on a hot path, a lower bound on its share of a real delivery.
const replayReps = 32

// replay shadows one delivery of f under a parent span on rec.
func (s *shadow) replay(rec *Recorder, f flow, payload []byte) {
	s.events.Reset()
	d, err := s.w.evo.SendTraced(f.src, f.dst, payload, s.events)
	if err != nil {
		return
	}
	parent := rec.Begin(0, "bench", "shadow_replay")
	if parent == 0 {
		return
	}
	first := len(rec.spans)
	ok := s.issue(rec, parent, d, f, payload)
	rec.End(parent)
	if !ok {
		return
	}
	for _, c := range rec.spans[first:] {
		s.sum += (float64(c.Dur()) - s.spanCost) / replayReps
	}
	s.n++
}

// issue makes the layer calls of the delivery s.events describes, each
// kind of call replayReps times in one child span of parent. It reports
// whether all succeeded.
func (s *shadow) issue(rec *Recorder, parent uint32, d core.Delivery, f flow, payload []byte) bool {
	inner := headerFor(s.w.evo, d, f.dst, &s.under, &s.tag, s.hdrOpts)
	pl := payload
	var wire []byte
	var err error
	for _, ev := range s.events.Events() {
		switch ev.Kind {
		case trace.KindEncap:
			s.cur.Local = ev.Src
			id := rec.BeginOps(parent, "tunnel", "encap_shared_ns", replayReps)
			for k := 0; k < replayReps; k++ {
				wire, err = s.cur.EncapToShared(ev.Dst, inner, pl)
			}
			rec.End(id)
		case trace.KindRedirect:
			// The ingress accepts the anycast-addressed packet.
			id := rec.BeginOps(parent, "packet", "ingress_decap", replayReps)
			for k := 0; k < replayReps; k++ {
				_, inner, pl, err = packet.DecapVNShared(wire, s.optCur[:0])
			}
			rec.End(id)
			s.swap()
		case trace.KindDecap:
			s.cur.Local = ev.Dst
			id := rec.BeginOps(parent, "tunnel", "decap_shared_ns", replayReps)
			for k := 0; k < replayReps; k++ {
				_, inner, pl, err = s.cur.DecapShared(wire, s.optCur[:0])
			}
			rec.End(id)
			s.swap()
		}
		if err != nil {
			return false
		}
	}
	// The seven counters a flow-cache hit moves besides encap and decap.
	id := rec.BeginOps(parent, "trace", "counters_replay", replayReps)
	for k := 0; k < replayReps; k++ {
		s.counters.Send()
		s.counters.FlowHit()
		s.counters.Redirect(true)
		s.counters.Ingress(s.w.net.DomainOf(d.Ingress.Member))
		s.counters.BoneHops(d.VNHops)
		s.counters.PayloadBytes(len(pl))
		s.counters.Deliver()
	}
	rec.End(id)
	return true
}

// fleetProbes times, on the fleet world and the workload's own headers,
// the public calls of the layers this workload enters.
func (r *run) fleetProbes(kind string, w *world, flows []flow, small, large []byte) {
	rec := r.tr.Recorder(4096)
	evo := w.evo
	const spans, ops = 16, 256

	probe(rec, "trace", "snapshot_us", spans, 16, func(int) { evo.Snapshot() })
	events := trace.NewRecorder()
	probe(rec, "trace", "recorder_event_ns", spans, ops, func(i int) {
		if i%ops == 0 {
			events.Reset()
		}
		events.Event(trace.Event{Kind: trace.KindSend, Seq: uint32(i)})
	})

	switch kind {
	case FleetWarm:
		r.packetProbes(rec, w, flows[0], small, large)
		var c trace.Counters
		probe(rec, "trace", "counter_inc_ns", spans, ops, func(int) { c.Send() })
		const contended = 1 << 16
		var wg sync.WaitGroup
		id := rec.BeginOps(0, "trace", "counter_inc_contended_ns", contended)
		for g := 0; g < Generators(); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < contended; i++ {
					c.Send()
				}
			}()
		}
		wg.Wait()
		rec.End(id)

	case FleetBurst:
		f := flows[0]
		outer, inner, err := probeHeaders(w, f, small)
		if err != nil {
			r.chk.failf("probe send: %v", err)
			return
		}
		var tpl packet.VNTemplate
		if err := tpl.Build(outer, inner); err != nil {
			r.chk.failf("probe template: %v", err)
			return
		}
		buf := make([]byte, 0, 2048)
		probe(rec, "packet", "template_emit_ns", spans, ops, func(i int) { _, _ = tpl.Emit(buf, small, uint32(i)) })
		var c trace.Counters
		var b trace.CounterBatch
		for i := 0; i < 256; i++ {
			// One burst's worth of tallies; only the flush is timed.
			b.Reset()
			for k := 0; k < burstSize; k++ {
				b.Send()
				b.FlowHit()
				b.Redirect(true)
				b.Encap()
				b.Decap()
				b.PayloadBytes(smallPayload)
				b.Deliver()
			}
			b.Ingress(f.src.Domain)
			b.BoneHops(burstSize)
			b.BatchFlows(1)
			b.BatchPackets(burstSize)
			id := rec.Begin(0, "trace", "batch_flush_ns")
			b.FlushTo(&c)
			rec.End(id)
		}

	case FleetCold:
		r.routingProbes(rec, w)
	}
}

// packetProbes times header serialization and decapsulation on one
// flow's real headers at both payload sizes; the difference is the
// per-kilobyte copy cost.
func (r *run) packetProbes(rec *Recorder, w *world, f flow, small, large []byte) {
	outer, inner, err := probeHeaders(w, f, small)
	if err != nil {
		r.chk.failf("probe send: %v", err)
		return
	}
	buf := packet.NewSerializeBuffer()
	scratch := make([]packet.Option, 0, 4)
	const spans, ops = 16, 256
	for _, c := range []struct {
		payload    []byte
		ser, decap string
	}{
		{small, "serialize_vn_ns", "decap_vn_shared_ns"},
		{large, "serialize_vn_1400", "decap_vn_shared_1400"},
	} {
		payload := c.payload
		probe(rec, "packet", c.ser, spans, ops, func(int) { _ = packet.SerializeVN(buf, payload, &outer, &inner) })
		wire := buf.Bytes()
		probe(rec, "packet", c.decap, spans, ops, func(int) { _, _, _, _ = packet.DecapVNShared(wire, scratch[:0]) })
	}
	prev := r.post
	r.post = func(by map[string][]float64) {
		if prev != nil {
			prev(by)
		}
		at64 := Median(by["packet.serialize_vn_ns"]) + Median(by["packet.decap_vn_shared_ns"])
		at1400 := Median(by["packet.serialize_vn_1400"]) + Median(by["packet.decap_vn_shared_1400"])
		r.layer("packet.ns_per_kb", (at1400-at64)/(float64(largePayload-smallPayload)/1000), spans)
	}
}

// routingProbes times the calls computeFlow makes on a flow-cache miss.
func (r *run) routingProbes(rec *Recorder, w *world) {
	evo, net := w.evo, w.net
	hosts := net.Hosts
	n := len(hosts)
	far := func(i int) (*topology.Host, *topology.Host) { return hosts[(i*37)%n], hosts[(i*37+n/2)%n] }
	const calls = 256

	probe(rec, "anycast", "resolve_host_us", calls, 1, func(i int) {
		src, _ := far(i)
		_, _ = evo.Anycast.ResolveFromHost(src, evo.AnycastAddr())
	})
	probe(rec, "forward", "host_to_host_us", calls, 1, func(i int) {
		src, dst := far(i)
		_, _ = evo.Fwd.HostToHost(src, dst)
	})
	probe(rec, "bgp", "lookup_warm_us", 16, calls, func(i int) {
		src, dst := far(i)
		evo.BGP.Lookup(src.Domain, dst.Addr)
	})

	vn, err := evo.VN()
	if err != nil {
		r.chk.failf("probe vn: %v", err)
		return
	}
	bone, err := evo.Bone()
	if err != nil {
		r.chk.failf("probe bone: %v", err)
		return
	}
	members := bone.Members()
	probe(rec, "bgpvn", "select_egress_us", calls, 1, func(i int) {
		_, dst := far(i)
		_, _ = vn.SelectEgress(members[i%len(members)], dst.Addr, bgpvn.PathInformed)
	})
	vnAddrs := make([]addr.VN, n)
	for i, h := range hosts {
		vnAddrs[i], _ = evo.HostVNAddr(h)
	}
	probe(rec, "bgpvn", "route_native_us", calls, 1, func(i int) {
		_, _ = vn.RouteNative(members[i%len(members)], vnAddrs[(i*37)%n])
	})
	probe(rec, "vnbone", "path_us", 16, calls, func(i int) {
		bone.Path(members[i%len(members)], members[(i*7+1)%len(members)])
	})

	// The rib tables at fleet size: one /128 per host beside the domain
	// blocks, and one aggregate per domain.
	var t4 rib.Table4[topology.ASN]
	for _, asn := range net.ASNs() {
		t4.Insert(net.Domain(asn).Prefix, asn)
	}
	probe(rec, "rib", "lookup4_ns", 16, calls, func(i int) { t4.Lookup(hosts[(i*37)%n].Addr) })
	var tvn rib.TableVN[topology.ASN]
	id := rec.BeginOps(0, "rib", "insertvn_ns", n)
	for i, h := range hosts {
		tvn.Insert(addr.HostVNPrefix(vnAddrs[i]), h.Domain)
	}
	rec.End(id)
	probe(rec, "rib", "lookupvn_ns", 16, calls, func(i int) { tvn.Lookup(vnAddrs[(i*37)%n]) })
}
