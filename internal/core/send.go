package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/forward"
	"github.com/evolvable-net/evolve/internal/metrics"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
	"github.com/evolvable-net/evolve/internal/tunnel"
	"github.com/evolvable-net/evolve/internal/vnbone"
)

// Delivery is one end-to-end IPvN transmission.
type Delivery struct {
	SrcVN, DstVN addr.VN
	// Ingress is the anycast leg: host to the first IPvN router.
	Ingress anycast.Resolution
	// Egress is the vN-Bone leg and exit decision.
	Egress bgpvn.Egress
	// TailCost is the final leg: egress router to the destination host
	// (zero when the egress domain is the destination's own and the
	// destination is natively addressed — then the tail is the intra
	// leg counted here too).
	TailCost int64
	// TotalCost is the full IPvN path cost.
	TotalCost int64
	// BaselineCost is the direct IPv(N-1) unicast cost between the hosts.
	BaselineCost int64
	// Stretch is TotalCost / BaselineCost.
	Stretch float64
	// Payload is the bytes that arrived, after all encap/decap layers —
	// the wire path runs for real.
	Payload []byte
	// VNHops is the number of vN-Bone virtual hops traversed.
	VNHops int
	// TailPath is the router-level path of the final leg, from the
	// egress member to the destination's attach router.
	TailPath []topology.RouterID
	// TraceTag is the per-delivery random tag stamped into the header
	// options at the source and verified at the destination.
	TraceTag uint32
	// Fallback reports that this delivery rode the IPv(N-1) baseline path
	// instead of the vN-Bone — the graceful-degradation layer engaged
	// (because the flow was in the fallback state, the vN attempt was
	// rescued in-line, or the routing epoch was an error epoch). TotalCost
	// then equals BaselineCost, Stretch is 1 and the vN-Bone fields
	// (Ingress, Egress, VNHops, TailCost, TailPath) are zero.
	Fallback bool
}

// Send delivers an IPvN packet with the given payload from src to dst,
// running the actual wire-level encapsulation at every stage, and returns
// the full accounting. Send is safe for concurrent use and lock-free: it
// loads the published routing epoch with one atomic pointer read and
// waits for a mutator only to redo a flow computation the mutation tore
// (see flowSkeleton). It emits no span events: SendTraced does.
func (e *Evolution) Send(src, dst *topology.Host, payload []byte) (Delivery, error) {
	ep := e.epoch.Load()
	return e.sendSingle(ep, src, dst, payload, ep.dep, nil)
}

// SendTraced is Send with a per-delivery Tracer, the one way span events
// leave the send engine: tr receives this delivery's events (redirect
// decision, every vN-Bone hop, egress selection, each encap/decap). A
// fresh trace.Recorder per call yields exactly one delivery's path trace.
func (e *Evolution) SendTraced(src, dst *topology.Host, payload []byte, tr trace.Tracer) (Delivery, error) {
	ep := e.epoch.Load()
	return e.sendSingle(ep, src, dst, payload, ep.dep, tr)
}

// SendVia delivers like Send but lets the user choose the IPvN provider:
// the packet is encapsulated toward provider's specific anycast address,
// so its ingress is guaranteed to be one of that provider's routers
// regardless of proximity.
func (e *Evolution) SendVia(src, dst *topology.Host, provider topology.ASN, payload []byte) (Delivery, error) {
	ep := e.epoch.Load()
	pd, ok := ep.provDeps[provider]
	if !ok {
		if ep.err == nil {
			return Delivery{}, fmt.Errorf("core: provider choice not enabled for AS%d", provider)
		}
		// An error epoch may have frozen no provider clones; the send then
		// fails, or rides the baseline, keyed to the shared address.
		pd = ep.dep
	}
	return e.sendSingle(ep, src, dst, payload, pd, nil)
}

// BatchError reports the per-packet failures of an AppendSendBurst. One
// bad packet never poisons the rest of the burst: every other packet is
// still delivered (its Delivery is in the returned slice), and the failed
// indexes carry a zero Delivery plus their error here. Test with errors.As:
//
//	var be *core.BatchError
//	if errors.As(err, &be) { ... be.Errs[i] ... }
type BatchError struct {
	// Errs has one entry per packet of the burst, in input order; nil
	// entries were delivered. Each non-nil entry is exactly the error
	// the equivalent single Send would have returned.
	Errs []error
	// Failed is the number of non-nil entries in Errs.
	Failed int
}

// Error summarizes the batch outcome with the first per-packet error.
func (b *BatchError) Error() string {
	for _, err := range b.Errs {
		if err != nil {
			return fmt.Sprintf("core: batch: %d of %d packets dropped (first: %v)", b.Failed, len(b.Errs), err)
		}
	}
	return fmt.Sprintf("core: batch: %d of %d packets dropped", b.Failed, len(b.Errs))
}

// flow is one flow skeleton materialized: the memoised routing decisions
// (fe) plus everything else that is a function of the flow and the epoch
// and not of the packet — the Delivery prototype, the serialized header
// template and the underlay loopback of every bone hop. flowFor builds it
// and nothing writes it afterwards, so one flow serves any number of
// concurrent sends read-only: a flow the shared cache answers a second
// time is published on its entry (flowEntry.mat) and every later send to
// it, single or burst, just points at that; until then it lives in the
// sending context's recycled scratch.
type flow struct {
	fe *flowEntry
	// proto is the flow's Delivery, complete but for Payload and TraceTag:
	// a delivered packet is one copy of it.
	proto Delivery
	tmpl  packet.VNTemplate
	// bone is the vN-Bone of the epoch fe was computed on; hop costs in
	// span events are read from it.
	bone *vnbone.Bone
	// hops[0] is the ingress member's loopback; hops[1:] follow
	// fe.eg.BonePath[1:]. The relay pass walks it with ForwardShared.
	hops []addr.V4
	// final is the leg-3 outer destination (the destination host's
	// underlay address in both the self-addressed and native cases);
	// self distinguishes the two for drop-error fidelity.
	final addr.V4
	self  bool
}

// batchCtx is the pooled working set of the send engine, one per Send or
// per burst: one walking tunnel endpoint for the relay pass, one
// destination endpoint for the final decap, the reusable wire buffer the
// header template emits into, the counter accumulator and the send's
// flow. With the pool warm, a steady-state all-success send allocates
// nothing.
type batchCtx struct {
	// ingress is the frozen deployment (the shared one, or a provider's)
	// every packet of this send encapsulates toward; its address keys the
	// flows.
	ingress *anycast.Deployment
	ep      *tunnel.Endpoint
	epDst   *tunnel.Endpoint
	wire    []byte
	opts    []packet.Option
	// flow is the send's one flow once resolved, the first thing
	// deliverVN consults: only a burst's first delivered packet reaches
	// the epoch's shared flow cache, so the whole burst observes one
	// routing decision even if the epoch churns mid-burst. It points at
	// the flow's published form or into scratch.
	flow *flow
	// scratch is the flow a send materializes for itself on a shared-cache
	// miss, recycled across sends with its template and hop storage.
	scratch  flow
	counters trace.CounterBatch
	// hdrOpts, underBuf and tagBuf build each flow's template options
	// (OptUnderlayDst for self-addressed destinations, OptTraceTag
	// placeholder patched per packet); markBuf holds the OptFallback
	// marker byte of baseline deliveries.
	hdrOpts  [2]packet.Option
	underBuf [4]byte
	tagBuf   [4]byte
	markBuf  [1]byte
}

var batchCtxPool = sync.Pool{
	New: func() any {
		return &batchCtx{
			ep:    tunnel.NewEndpoint(0),
			epDst: tunnel.NewEndpoint(0),
			wire:  make([]byte, 0, 512),
			opts:  make([]packet.Option, 0, 8),
		}
	},
}

// getBatchCtx takes a pooled context readied for a send through ingress,
// keeping every backing array (flow templates and hop lists included).
func getBatchCtx(ingress *anycast.Deployment) *batchCtx {
	bc := batchCtxPool.Get().(*batchCtx)
	bc.ingress = ingress
	bc.flow = nil
	bc.counters.Reset()
	return bc
}

// flowFor makes fe the send's flow and returns it materialized: the
// Delivery prototype, the header template (serialized once through the
// real layer serializers, then patched per packet) and the bone path's
// loopback addresses. shared says
// fe came out of the epoch's flow cache: the form published on it is used
// as is, and when there is none yet — this is the flow's first reuse — one
// is built on the heap and published with one compare-and-swap (a racing
// sender's form is as good: both are functions of fe and ep alone). A
// skeleton this send computed itself is materialized into recycled
// scratch, so a flow nobody sends on twice leaves nothing behind on its
// entry and a warm context materializes without allocating.
func (bc *batchCtx) flowFor(e *Evolution, ep *routingEpoch, src, dst *topology.Host, fe *flowEntry, shared bool) (*flow, error) {
	f := fe.mat.Load()
	if f != nil {
		bc.flow = f
		return f, nil
	}
	if shared {
		f = new(flow)
	} else {
		f = &bc.scratch
	}
	f.fe = fe
	f.bone = ep.bone
	f.self = fe.dstVN.IsSelf()
	f.final = dst.Addr
	total := fe.ing.Cost + fe.eg.BoneCost + fe.tailCost
	f.proto = Delivery{
		SrcVN:        fe.srcVN,
		DstVN:        fe.dstVN,
		Ingress:      fe.ing,
		Egress:       fe.eg,
		TailCost:     fe.tailCost,
		TotalCost:    total,
		BaselineCost: fe.baseline,
		Stretch:      metrics.Stretch(total, fe.baseline),
		VNHops:       fe.vnHops,
		TailPath:     fe.tailPath,
	}

	// Leg 1 — universal access: the host encapsulates toward the
	// deployment's anycast address; routing finds the ingress (§3.1). The
	// template freezes the packet as it leaves that leg: the inner hop
	// limit already decremented once by the source's encapsulation, the
	// outer addressed from the source host to the anycast address.
	hdr := packet.VNHeader{
		Version:  e.cfg.Version,
		HopLimit: packet.DefaultHopLimit - 1,
		Src:      fe.srcVN,
		Dst:      fe.dstVN,
	}
	opts := bc.hdrOpts[:0]
	if f.self {
		// Carry the destination's IPv(N-1) address for the egress
		// (§3.3.2's "carried in a separate option field").
		binary.BigEndian.PutUint32(bc.underBuf[:], uint32(dst.Addr))
		opts = append(opts, packet.Option{Type: packet.OptUnderlayDst, Value: bc.underBuf[:]})
	}
	// Every packet is tagged so the final check can assert the header
	// options survive every encap/decap stage bit-for-bit.
	bc.tagBuf = [4]byte{}
	opts = append(opts, packet.Option{Type: packet.OptTraceTag, Value: bc.tagBuf[:]})
	hdr.Options = opts
	outer := packet.V4Header{Proto: packet.ProtoVNEncap, Src: src.Addr, Dst: bc.ingress.Addr}
	if err := f.tmpl.Build(outer, hdr); err != nil {
		return nil, err
	}

	hops := append(slices.Grow(f.hops[:0], max(1, len(fe.eg.BonePath))), e.Net.Router(fe.ing.Member).Loopback)
	for j := 1; j < len(fe.eg.BonePath); j++ {
		hops = append(hops, e.Net.Router(fe.eg.BonePath[j]).Loopback)
	}
	f.hops = hops
	if shared && !fe.mat.CompareAndSwap(nil, f) {
		f = fe.mat.Load()
	}
	bc.flow = f
	return f, nil
}

// sendSingle drives the engine once: Send, SendTraced and SendVia are
// this call with their ingress deployment and tracer (nil but for
// SendTraced). Span events go straight to tr, the error is the packet's
// own, and the batch gauges stay untouched.
func (e *Evolution) sendSingle(ep *routingEpoch, src, dst *topology.Host, payload []byte, ingress *anycast.Deployment, tr trace.Tracer) (Delivery, error) {
	bc := getBatchCtx(ingress)
	var d Delivery
	err := e.sendOne(bc, ep, src, dst, payload, &d, tr)
	bc.counters.FlushTo(&e.counters)
	batchCtxPool.Put(bc)
	return d, err
}

// growDeliveries extends out by n zeroed entries, in place when the
// capacity is already there.
func growDeliveries(out []Delivery, n int) []Delivery {
	base := len(out)
	if cap(out)-base >= n {
		out = out[:base+n]
		clear(out[base:])
		return out
	}
	return append(out, make([]Delivery, n)...)
}

// AppendSendBurst delivers every payload to one destination, appending
// one Delivery per payload to out. It amortizes the per-send fixed costs
// across the burst: the epoch load, the flow-cache probe, header
// serialization and the Delivery's routing fields happen once per burst.
// What stays per packet is the packet — tag, emit, relay walk, final
// decap, integrity checks, and the health decision when degradation is
// on. It is observationally identical to calling Send(src, dst,
// payloads[i]) for each i in order on one routing epoch: byte-identical
// deliveries, identical drop reasons and counter tallies. A burst emits
// no span events; to trace its packets, send them with SendTraced. With
// out's capacity sufficient and the burst all-success, a steady-state
// call allocates nothing.
//
// A failed packet never poisons the rest: the error is a *BatchError
// carrying per-packet errors, the failed indexes hold a zero Delivery and
// every other index's Delivery is valid. When the deployment has no
// usable epoch at all the error is that epoch error (every packet would
// have failed identically) and out is returned unextended.
//
// The burst runs against the one routing epoch it loads: a mutation
// mid-burst never tears it across epochs (later packets just lose
// cache-store eligibility, exactly like a Send racing the same
// mutation). Counters fold into the shared tally with one flush.
func (e *Evolution) AppendSendBurst(out []Delivery, src, dst *topology.Host, payloads [][]byte) ([]Delivery, error) {
	n := len(payloads)
	if n == 0 {
		return out, nil
	}
	ep := e.epoch.Load()
	base := len(out)
	res := growDeliveries(out, n)
	bc := getBatchCtx(ep.dep)

	var errs []error
	failed := 0
	for i, pl := range payloads {
		if e.testBatchHook != nil {
			e.testBatchHook(i)
		}
		if err := e.sendOne(bc, ep, src, dst, pl, &res[base+i], nil); err != nil {
			if errs == nil {
				errs = make([]error, n)
			}
			errs[i] = err
			failed++
		}
	}

	if bc.flow != nil {
		bc.counters.BatchFlows(1)
	}
	bc.counters.BatchPackets(n)
	bc.counters.FlushTo(&e.counters)
	batchCtxPool.Put(bc)

	if ep.err != nil && e.health == nil {
		// Every packet failed identically with the epoch's error: report
		// that, and leave out unextended.
		return out, ep.err
	}
	if failed > 0 {
		return res, &BatchError{Errs: errs, Failed: failed}
	}
	return res, nil
}

// drop closes one packet as a failure: counted under its reason, traced
// as a KindDrop event when tracing.
func (bc *batchCtx) drop(tr trace.Tracer, seq uint32, reason trace.DropReason, err error) error {
	bc.counters.Drop(reason)
	if tr != nil {
		tr.Event(trace.Event{Kind: trace.KindDrop, Seq: seq, Router: -1, Reason: reason})
	}
	return err
}

// sendOne delivers one packet on ep: the only delivery implementation,
// under Send and under every packet of a batch alike. It opens the span
// (send tally, per-delivery tag) and runs the vN path — directly when the
// graceful-degradation layer is off, through the flow's health decision
// when it is on: the health record decides whether to attempt the vN path
// at all, a vN failure (other than a missing baseline) is rescued in-line
// over the baseline, a flow in fallback skips the vN path except for its
// backoff probes, and an error epoch rides the baseline instead of
// failing (the underlay does not care that the vN deployment is broken)
// while the flow takes the failure, so it probes back as soon as a usable
// epoch publishes. out, zero on entry, is written whole and only by the
// path that delivers: a dropped packet, or a vN attempt the baseline then
// rescues, leaves nothing of itself in it.
func (e *Evolution) sendOne(bc *batchCtx, ep *routingEpoch, src, dst *topology.Host, payload []byte, out *Delivery, tr trace.Tracer) error {
	cb := &bc.counters
	cb.Send()
	if ep.err != nil && e.health == nil {
		// Fail fast: a send dropped not-deployed, no span events.
		cb.Drop(trace.DropNotDeployed)
		return ep.err
	}
	// The per-delivery tag distinguishes concurrent sends' spans and
	// integrity checks from one another; math/rand/v2 draws it from a
	// per-P generator, so unlike a shared atomic sequence the stamp
	// costs no cross-sender cache-line traffic.
	seq := rand.Uint32()
	if tr != nil {
		tr.Event(trace.Event{Kind: trace.KindSend, Seq: seq, Router: src.Attach, AS: src.Domain})
	}
	if e.health == nil {
		if reason, err := e.deliverVN(bc, ep, src, dst, payload, out, tr, seq); err != nil {
			return bc.drop(tr, seq, reason, err)
		}
		return nil
	}

	h := e.health.loadOrCreate(uint32(src.ID), flowKey{src: src.ID, dst: dst.ID, dep: bc.ingress.Addr}, func(k flowKey) *flowHealth {
		return &flowHealth{jstate: jitterSeed(k)}
	})
	vnReason, detail, mark := trace.DropNone, trace.DetailFallbackState, packet.FallbackMarkState
	if ep.err != nil {
		h.observeDst(ep.addrOf(dst))
		h.noteFailure(ep.seq, cb, tr, seq)
		vnReason, detail, mark = trace.DropNotDeployed, trace.DetailFallbackErrEpoch, packet.FallbackMarkRescue
	} else if attempt, probe := h.decide(ep.seq, ep.addrOf(dst), cb); attempt {
		reason, err := e.deliverVN(bc, ep, src, dst, payload, out, tr, seq)
		if err == nil {
			h.noteSuccess(probe, cb, tr, seq)
			return nil
		}
		if reason == trace.DropNoBaseline {
			// The vN skeleton was fine and only the baseline is missing:
			// nothing to rescue over, and nothing learned about the vN path.
			return bc.drop(tr, seq, reason, err)
		}
		h.noteFailure(ep.seq, cb, tr, seq)
		vnReason, detail, mark = reason, trace.DetailFallbackRescue, packet.FallbackMarkRescue
	}
	if reason, err := e.deliverFallback(bc, ep, h, src, dst, payload, out, seq, vnReason, detail, mark, tr); err != nil {
		return bc.drop(tr, seq, reason, err)
	}
	return nil
}

// flowSkeleton returns the routing skeleton of the (src, dst) flow
// through bc.ingress: from the epoch's sharded flow cache when this flow
// has delivered before (routing is deterministic within an epoch, so the
// cached skeleton is exact), computed and memoised otherwise. Like the
// redirect cache, a skeleton computed after a mutator has already moved
// on is correct to use but must not be stored.
//
// computeFlow reads forwarding state that mutators edit in place, so a
// computation that overlaps a mutation can see it half-applied (an
// inter-link removed, BGP not yet refreshed) and fail on a flow that
// routes fine before and after. Such an error — mutSeq has moved past the
// epoch's seq — is not returned: the computation runs once more on the
// freshly published epoch with mutators locked out, and that verdict
// stands. It returns the epoch the skeleton belongs to, and whether the
// flow cache answered (true) or the skeleton is this send's own.
func (e *Evolution) flowSkeleton(bc *batchCtx, ep *routingEpoch, src, dst *topology.Host) (*flowEntry, *routingEpoch, bool, trace.DropReason, error) {
	cb := &bc.counters
	fk := flowKey{src: src.ID, dst: dst.ID, dep: bc.ingress.Addr}
	if fe, ok := ep.flow.load(uint32(fk.src), fk); ok {
		cb.FlowHit()
		// A flow hit is served entirely from memoised state, redirect
		// decision included — count it so the redirect hit-rate stays
		// meaningful.
		cb.Redirect(true)
		return fe, ep, true, trace.DropNone, nil
	}
	cb.FlowMiss()
	before := *cb
	fe, reason, err := e.computeFlow(ep, src, dst, bc.ingress, cb)
	if err != nil && e.mutSeq.Load() != ep.seq {
		e.mu.Lock()
		if now := e.epoch.Load(); now.err == nil {
			if ingress := now.ingressAt(bc.ingress.Addr); ingress != nil {
				// The torn attempt leaves no tally behind.
				*cb = before
				ep = now
				fe, reason, err = e.computeFlow(ep, src, dst, ingress, cb)
			}
		}
		e.mu.Unlock()
	}
	if err != nil {
		return nil, ep, false, reason, err
	}
	if e.mutSeq.Load() == ep.seq {
		ep.flow.store(uint32(fk.src), fk, fe)
	}
	return fe, ep, false, trace.DropNone, nil
}

// ingressAt returns the epoch's frozen deployment serving anycast
// address a, nil when it has none.
func (ep *routingEpoch) ingressAt(a addr.V4) *anycast.Deployment {
	if ep.dep.Addr == a {
		return ep.dep
	}
	for _, pd := range ep.provDeps {
		if pd.Addr == a {
			return pd
		}
	}
	return nil
}

// deliverVN runs the vN delivery of one packet: the flow's skeleton —
// this send's own when an earlier packet of the burst resolved it
// (counted as the flow hit it is), resolved and materialized otherwise —
// then the wire pass for real: the packet is emitted from the flow's
// header template and patched in place per leg, and the arriving bytes
// are parsed and checked at the destination. Only then is out written,
// once. With the pool warm, a steady-state delivery allocates nothing.
// Failures are returned with their drop reason neither counted nor
// traced, and out untouched: the caller decides whether the packet drops
// or gets rescued over the baseline.
func (e *Evolution) deliverVN(bc *batchCtx, ep *routingEpoch, src, dst *topology.Host, payload []byte, out *Delivery, tr trace.Tracer, seq uint32) (trace.DropReason, error) {
	cb := &bc.counters
	bf := bc.flow
	if bf != nil {
		cb.FlowHit()
		cb.Redirect(true)
	} else {
		fe, ep, hit, reason, err := e.flowSkeleton(bc, ep, src, dst)
		if err != nil {
			return reason, err
		}
		if bf, err = bc.flowFor(e, ep, src, dst, fe, hit); err != nil {
			return trace.DropEncap, err
		}
	}
	fe := bf.fe
	cb.Ingress(fe.ingressAS)
	cb.BoneHops(fe.vnHops)

	// Leg 1 — emit from the template: header prefix plus payload, with
	// lengths, trace tag and checksum patched. Byte-identical to
	// serializing both headers around the payload, overflow errors
	// included.
	wire, err := bf.tmpl.Emit(bc.wire, payload, seq)
	if err != nil {
		return trace.DropEncap, err
	}
	bc.wire = wire
	cb.Encap()
	if tr != nil {
		tr.Event(trace.Event{
			Kind: trace.KindEncap, Seq: seq, Router: -1,
			Src: src.Addr, Dst: bc.ingress.Addr,
		})
		tr.Event(trace.Event{
			Kind: trace.KindRedirect, Seq: seq,
			Router: fe.ing.Member, AS: fe.ingressAS, Cost: fe.ing.Cost,
		})
		// The ingress accepts anycast-addressed packets and decapsulates
		// there. That decap is valid by construction (the template's outer
		// destination is the anycast address), so it is neither counted
		// nor traced.
		tr.Event(trace.Event{
			Kind: trace.KindEgress, Seq: seq,
			Router: fe.eg.Member, AS: e.Net.DomainOf(fe.eg.Member),
			Cost: fe.eg.BoneCost, Detail: fe.egDetail,
		})
	}

	// Leg 2 — walk the bone path in place: each ForwardShared is one
	// complete relay hop (re-encapsulation toward the next loopback plus
	// arrival accounting), byte- and event-identical to an
	// EncapToShared/DecapShared pair.
	bc.ep.Local = bf.hops[0]
	bc.ep.Observe(tr, nil, seq)
	path := fe.eg.BonePath
	for j := 1; j < len(bf.hops); j++ {
		if err := bc.ep.ForwardShared(wire, bf.hops[j]); err != nil {
			return trace.DropRelay, fmt.Errorf("core: bone relay %d: %w", j, err)
		}
		cb.Encap()
		cb.Decap()
		if tr != nil {
			hop := path[j]
			tr.Event(trace.Event{
				Kind: trace.KindBoneHop, Seq: seq,
				Router: hop, AS: e.Net.DomainOf(hop),
				Cost: bf.bone.Dist(path[j-1], hop),
			})
		}
	}

	// Leg 3 — exit the vN-Bone toward the destination host's underlay
	// address (for a self-addressed destination, the one its header
	// option carries).
	if err := bc.ep.PatchEncap(wire, bf.final); err != nil {
		if bf.self {
			return trace.DropTail, fmt.Errorf("core: final tunnel: %w", err)
		}
		return trace.DropTail, fmt.Errorf("core: native delivery encap: %w", err)
	}
	cb.Encap()

	bc.epDst.Local = dst.Addr
	bc.epDst.Observe(tr, nil, seq)
	_, inner, rpl, err := bc.epDst.DecapShared(wire, bc.opts[:0])
	if err != nil {
		return trace.DropTail, fmt.Errorf("core: final decap: %w", err)
	}
	cb.Decap()
	if inner.Options != nil {
		bc.opts = inner.Options[:0]
	}

	// The arrived payload aliases the pooled wire buffer; once it checks
	// out, the caller gets their own bytes back so the Delivery outlives
	// the pooled working set.
	if err := checkArrival(inner.Options, rpl, payload, seq); err != nil {
		return trace.DropIntegrity, err
	}
	*out = bf.proto
	out.Payload = payload
	out.TraceTag = seq
	cb.PayloadBytes(len(payload))
	cb.Deliver()
	if tr != nil {
		tr.Event(trace.Event{
			Kind: trace.KindDeliver, Seq: seq,
			Router: dst.Attach, AS: dst.Domain, Cost: out.TotalCost,
		})
	}
	return trace.DropNone, nil
}

// checkArrival holds what reached the destination to what the source
// sent: the trace tag among the inner header's options must have survived
// the whole wire path, and the payload must be bit-exact. A failure is a
// DropIntegrity.
func checkArrival(opts []packet.Option, got, sent []byte, seq uint32) error {
	var tag uint32
	for _, o := range opts {
		if o.Type == packet.OptTraceTag && len(o.Value) == 4 {
			tag = binary.BigEndian.Uint32(o.Value)
		}
	}
	if tag != seq {
		return fmt.Errorf("core: trace tag corrupted in transit (%d != %d)", tag, seq)
	}
	if !bytes.Equal(got, sent) {
		return fmt.Errorf("core: payload corrupted in transit")
	}
	return nil
}

// resolveAt is the redirect decision every consumer shares: the
// router-level anycast resolution (no access-link cost) from attach
// router r toward d's address, memoised in the epoch's sharded redirect
// cache (routing is deterministic within an epoch, so the cache is exact,
// not a heuristic). The returned Resolution is the cached one: read-only.
// hit reports whether the cache answered.
//
// gated is for callers that do not hold mu. A resolution they compute
// while a mutator has already moved on is still correct to return — it
// resolved against the epoch's frozen deployment — but must not be
// cached: the store is gated on the mutation sequence still matching the
// epoch's, and any store that races past the gate is shed by the next
// epoch's entry-by-entry carry-over. Callers under mu read forwarding
// state at rest and store unconditionally.
func (e *Evolution) resolveAt(ep *routingEpoch, d *anycast.Deployment, r topology.RouterID, gated bool) (res *anycast.Resolution, hit bool, err error) {
	k := resolveKey{r, d.Addr}
	if v, ok := ep.resolve.load(uint32(r), k); ok {
		return v, true, nil
	}
	walked, err := e.Anycast.ResolveFromRouterVia(d, r)
	if err != nil {
		return nil, false, err
	}
	if !gated || e.mutSeq.Load() == ep.seq {
		ep.resolve.store(uint32(r), k, &walked)
	}
	return &walked, false, nil
}

// resolveIngress is the redirect decision of the send path: src's attach
// router's resolution toward d's address plus src's own access link: one
// walk per router instead of one per host.
func (e *Evolution) resolveIngress(ep *routingEpoch, d *anycast.Deployment, src *topology.Host, cb *trace.CounterBatch) (anycast.Resolution, error) {
	v, hit, err := e.resolveAt(ep, d, src.Attach, true)
	if err != nil {
		return anycast.Resolution{}, err
	}
	cb.Redirect(hit)
	res := *v
	res.Cost += src.AccessLatency
	return res, nil
}

// route is the vN routing decision on ep for dst, addressed dstVN, from
// ingress member ingress: bgpvn's one Route, handed a registered
// self-addressed destination's origin — the domain its attach router's
// anycast resolution lands in (§3.3.2), read from the redirect cache,
// which registration and every routing epoch fill at each registrant's
// router. The origin comes from the shared deployment whichever one the
// sender chose, counts nothing, and on a hit allocates nothing; a
// registrant that cannot reach the deployment has none. A resolution that
// fails while a mutator has moved on may be torn, so that error is
// returned for the caller to retry under mu.
func (e *Evolution) route(ep *routingEpoch, ingress topology.RouterID, dst *topology.Host, dstVN addr.VN) (bgpvn.Egress, string, error) {
	origin := topology.ASN(-1)
	if dstVN.IsSelf() && ep.registered.has(dst.ID) {
		res, _, err := e.resolveAt(ep, ep.dep, dst.Attach, true)
		switch {
		case err == nil:
			origin = e.Net.DomainOf(res.Member)
		case e.mutSeq.Load() != ep.seq:
			return bgpvn.Egress{}, "", err
		}
	}
	return ep.vn.Route(ingress, dstVN, dst.Addr, origin, e.cfg.Egress)
}

// computeFlow computes one flow's delivery skeleton against ep: the
// redirect resolution (leg 1, memoised separately in the redirect
// cache), the vN-Bone egress pick (leg 2, bgpvn's one Route decision),
// the tail leg (leg 3) and the IPv(N-1) baseline. Every path computation
// of a send happens here and none of the wire-level work; see flowEntry.
func (e *Evolution) computeFlow(ep *routingEpoch, src, dst *topology.Host, ingressDep *anycast.Deployment, cb *trace.CounterBatch) (*flowEntry, trace.DropReason, error) {
	fe := &flowEntry{
		srcVN: ep.addrOf(src),
		dstVN: ep.addrOf(dst),
	}
	ing, err := e.resolveIngress(ep, ingressDep, src, cb)
	if err != nil {
		return nil, trace.DropNoIngress, fmt.Errorf("core: ingress: %w", err)
	}
	fe.ing = ing
	fe.ingressAS = e.Net.DomainOf(ing.Member)

	eg, egDetail, err := e.route(ep, ing.Member, dst, fe.dstVN)
	if err != nil {
		return nil, trace.DropNoVNRoute, fmt.Errorf("core: vn routing: %w", err)
	}
	fe.eg = eg
	fe.egDetail = egDetail
	fe.vnHops = len(eg.BonePath) - 1
	if fe.vnHops < 0 {
		fe.vnHops = 0
	}

	// One walk toward dst serves the tail and the baseline: reopened at
	// the source, it keeps the BGP view the tail resolved.
	w := e.Fwd.Begin(eg.Member)
	defer e.Fwd.End(w)
	if fe.dstVN.IsSelf() {
		if _, err := e.Fwd.Deliver(w, dst.Addr, dst); err != nil {
			return nil, trace.DropTail, fmt.Errorf("core: tail: %w", err)
		}
		fe.tailCost, fe.tailPath = w.Cost, forward.Exact(w.Routers)
	} else {
		// Egress is in dst's own (participating) domain: IGP delivers.
		fe.tailCost = e.IGP.IntraDist(eg.Member, dst.Attach) + dst.AccessLatency
		fe.tailPath = e.IGP.IntraPath(eg.Member, dst.Attach)
	}

	if fe.baseline, err = e.Fwd.BaselineCostOn(w, src, dst); err != nil {
		return nil, trace.DropNoBaseline, fmt.Errorf("core: baseline: %w", err)
	}
	return fe, trace.DropNone, nil
}
