package trace

import (
	"maps"

	"github.com/evolvable-net/evolve/internal/topology"
)

// CounterBatch is a plain, single-goroutine accumulator for the send-path
// counters, and the one sink the delivery engine counts into. A send
// tallies its packet — or every packet of its burst — into one
// CounterBatch with ordinary integer adds, then folds the lot into the
// shared striped Counters with one FlushTo: one stripe drawn, one add per
// touched counter per send or batch. A CounterBatch is not safe for
// concurrent use; each send owns its own (pooled alongside its wire
// buffers).
type CounterBatch struct {
	// n holds the send path's scalar counters, indexed by counterID.
	n     [numBatched]uint64
	drops [numDropReasons]uint64
	// ingress is a tiny assoc array: bursts touch one (or very few)
	// ingress domains, so a linear scan beats a map and allocates
	// nothing once the slice has grown.
	ingress []ingressDelta
}

type ingressDelta struct {
	as topology.ASN
	n  uint64
}

// Send counts one delivery attempt entering the send path.
func (b *CounterBatch) Send() { b.n[cSends]++ }

// Deliver counts one successful end-to-end delivery.
func (b *CounterBatch) Deliver() { b.n[cDeliveries]++ }

// Drop counts one failed delivery under its reason.
func (b *CounterBatch) Drop(r DropReason) {
	if r == DropNone || r >= numDropReasons {
		return
	}
	b.drops[r]++
}

// Redirect counts one anycast redirect resolution; hit reports whether
// it was served from the redirect cache.
func (b *CounterBatch) Redirect(hit bool) {
	b.n[cRedirects]++
	if hit {
		b.n[cRedirectHits]++
	}
}

// FlowHit counts one send served from a memoised flow skeleton.
func (b *CounterBatch) FlowHit() { b.n[cFlowHits]++ }

// FlowMiss counts one send that computed its delivery skeleton.
func (b *CounterBatch) FlowMiss() { b.n[cFlowMisses]++ }

// PayloadBytes counts n payload bytes carried by successful deliveries.
func (b *CounterBatch) PayloadBytes(n int) {
	if n > 0 {
		b.n[cPayloadBytes] += uint64(n)
	}
}

// BatchFlows counts n distinct flow skeletons materialized by this batch.
func (b *CounterBatch) BatchFlows(n int) {
	if n > 0 {
		b.n[cBatchFlows] += uint64(n)
	}
}

// BatchPackets counts n packets carried by this batch.
func (b *CounterBatch) BatchPackets(n int) {
	if n > 0 {
		b.n[cBatchPackets] += uint64(n)
	}
}

// FallbackSend counts one delivery carried over the baseline path.
func (b *CounterBatch) FallbackSend() { b.n[cFallbackSends]++ }

// FallbackRescue counts one in-line baseline rescue of a failed vN
// attempt.
func (b *CounterBatch) FallbackRescue() { b.n[cFallbackRescues]++ }

// FallbackProbe counts one vN probe attempted by a flow in fallback.
func (b *CounterBatch) FallbackProbe() { b.n[cFallbackProbes]++ }

// HealthFallback counts one flow transitioning into the fallback state.
func (b *CounterBatch) HealthFallback() { b.n[cHealthFallback]++ }

// HealthProbation counts one flow entering probation.
func (b *CounterBatch) HealthProbation() { b.n[cHealthProbation]++ }

// HealthRecovered counts one flow completing probation: probation →
// healthy.
func (b *CounterBatch) HealthRecovered() { b.n[cHealthRecovered]++ }

// Ingress counts one delivery entering the deployment in domain as.
func (b *CounterBatch) Ingress(as topology.ASN) {
	for i := range b.ingress {
		if b.ingress[i].as == as {
			b.ingress[i].n++
			return
		}
	}
	b.ingress = append(b.ingress, ingressDelta{as: as, n: 1})
}

// Encap counts one tunnel encapsulation.
func (b *CounterBatch) Encap() { b.n[cEncaps]++ }

// Decap counts one tunnel decapsulation.
func (b *CounterBatch) Decap() { b.n[cDecaps]++ }

// BoneHops counts n vN-Bone virtual hops traversed by one delivery.
func (b *CounterBatch) BoneHops(n int) {
	if n > 0 {
		b.n[cBoneHops] += uint64(n)
	}
}

// Reset zeroes the accumulator for reuse, keeping the ingress slice's
// capacity.
func (b *CounterBatch) Reset() {
	b.ingress = b.ingress[:0]
	*b = CounterBatch{ingress: b.ingress}
}

// FlushTo folds the accumulated tallies into c on one stripe: one draw,
// then one add per non-zero counter on that stripe's few adjacent lines.
// After FlushTo, c's Snapshot reflects the batch exactly as if every
// packet had counted through c directly.
func (b *CounterBatch) FlushTo(c *Counters) {
	stripe := pick()
	blk := &c.s[stripe]
	for i := range b.n {
		if n := b.n[i]; n > 0 {
			blk.cells[i].Add(n)
		}
	}
	for r := DropNotDeployed; r < numDropReasons; r++ {
		if n := b.drops[r]; n > 0 {
			blk.cells[dropCell(r)].Add(n)
		}
	}
	for _, d := range b.ingress {
		c.ingressN(stripe, d.as, d.n)
	}
}

// ingressN adds n to the per-AS ingress tally on the caller's stripe.
func (c *Counters) ingressN(stripe uint32, as topology.ASN, n uint64) {
	v := c.ingressMap()[as]
	if v == nil {
		v = c.ingressCell(as)
	}
	v.s[stripe].v.Add(n)
}

// ingressMap returns the published per-AS tallies, read-only; nil before
// the first ingress.
func (c *Counters) ingressMap() map[topology.ASN]*striped {
	if m := c.ingressByAS.Load(); m != nil {
		return *m
	}
	return nil
}

// ingressCell returns as's tally, publishing a copy of the map with a
// fresh one added when as has not been an ingress before.
func (c *Counters) ingressCell(as topology.ASN) *striped {
	c.ingressMu.Lock()
	defer c.ingressMu.Unlock()
	prev := c.ingressMap()
	if v := prev[as]; v != nil {
		return v
	}
	next := make(map[topology.ASN]*striped, len(prev)+1)
	maps.Copy(next, prev)
	v := new(striped)
	next[as] = v
	c.ingressByAS.Store(&next)
	return v
}
