package core

import (
	"encoding/binary"
	"fmt"

	"github.com/evolvable-net/evolve/internal/metrics"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// deliverFallback runs one delivery over the IPv(N-1) baseline: a direct
// tunnel from the source host to the destination host's underlay address,
// carrying the IPvN header marked with OptFallback, serialized and parsed
// through the layer serializers. It is the wire path of every degradation
// mode — fallback-state sends, in-line rescues of failed vN attempts, and
// error-epoch sends — run on the send's own context, so tallies and span
// events land where the vN path's do. vnReason carries the vN failure
// that triggered a rescue (DropNone for state sends) and detail names the
// mode, which fixes the OptFallback mark: a state send carries
// FallbackMarkState, a rescue or error-epoch send FallbackMarkRescue. On
// failure the drop reason is returned for the caller's drop and out is
// untouched, on success out is overwritten whole.
func (e *Evolution) deliverFallback(
	bc *batchCtx, ep *routingEpoch, src, dst *topology.Host, payload []byte, out *Delivery,
	seq uint32, vnReason trace.DropReason, detail string, tr trace.Tracer,
) (trace.DropReason, error) {
	cb := &bc.counters
	cost, err := e.Fwd.HostToHost(src, dst)
	if err != nil && e.mutSeq.Load() != ep.seq {
		// Torn by a mutation in flight (see flowSkeleton): once more with
		// mutators locked out.
		e.mu.Lock()
		cost, err = e.Fwd.HostToHost(src, dst)
		e.mu.Unlock()
	}
	if err != nil {
		return trace.DropNoBaseline, fmt.Errorf("core: baseline: %w", err)
	}
	if tr != nil {
		tr.Event(trace.Event{Kind: trace.KindFallback, Seq: seq, Router: -1, Reason: vnReason, Detail: detail})
	}

	hdr := packet.VNHeader{
		Version: e.cfg.Version,
		Src:     ep.addrOf(src),
		Dst:     ep.addrOf(dst),
	}
	mark := packet.FallbackMarkRescue
	if detail == trace.DetailFallbackState {
		mark = packet.FallbackMarkState
	}
	bc.markBuf[0] = mark
	opts := append(bc.hdrOpts[:0], packet.Option{Type: packet.OptFallback, Value: bc.markBuf[:]})
	binary.BigEndian.PutUint32(bc.tagBuf[:], seq)
	opts = append(opts, packet.Option{Type: packet.OptTraceTag, Value: bc.tagBuf[:]})
	hdr.Options = opts

	bc.ep.Local = src.Addr
	bc.ep.Observe(tr, nil, seq)
	wire, err := bc.ep.EncapToShared(dst.Addr, hdr, payload)
	if err != nil {
		return trace.DropEncap, fmt.Errorf("core: fallback encap: %w", err)
	}
	cb.Encap()
	bc.epDst.Local = dst.Addr
	bc.epDst.Observe(tr, nil, seq)
	_, inner, pl, err := bc.epDst.DecapShared(wire, bc.opts[:0])
	if err != nil {
		return trace.DropTail, fmt.Errorf("core: fallback decap: %w", err)
	}
	cb.Decap()

	if err := checkArrival(inner.Options, pl, payload, seq); err != nil {
		return trace.DropIntegrity, err
	}

	*out = Delivery{
		SrcVN:        hdr.Src,
		DstVN:        hdr.Dst,
		TotalCost:    cost,
		BaselineCost: cost,
		Stretch:      metrics.Stretch(cost, cost),
		Fallback:     true,
		TraceTag:     seq,
		Payload:      payload,
	}
	cb.FallbackSend()
	if mark == packet.FallbackMarkRescue {
		cb.FallbackRescue()
	}
	cb.PayloadBytes(len(payload))
	cb.Deliver()
	if tr != nil {
		tr.Event(trace.Event{Kind: trace.KindDeliver, Seq: seq, Router: dst.Attach, AS: dst.Domain, Cost: cost})
	}
	return trace.DropNone, nil
}
