package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/evolvable-net/evolve/internal/topology"
)

// DropReason classifies why a delivery failed, by the stage that killed
// it. The taxonomy follows the legs of a delivery (OBSERVABILITY.md):
// ingress (anycast), vN-Bone transit, egress/tail, plus wire-level
// failures that can occur at any stage.
type DropReason uint8

const (
	// DropNone: not a drop (the zero value, never counted).
	DropNone DropReason = iota
	// DropNotDeployed: the deployment has no IPvN routers at all.
	DropNotDeployed
	// DropNoIngress: anycast resolution found no ingress (no route, dead
	// end at the default domain, or a forwarding loop).
	DropNoIngress
	// DropEncap: a tunnel encapsulation failed (hop limit exhausted,
	// serialization error).
	DropEncap
	// DropDecap: a tunnel decapsulation failed (malformed wire bytes, or
	// a packet that arrived at the wrong endpoint).
	DropDecap
	// DropNoVNRoute: BGPvN had no route — no native prefix covers the
	// destination and no egress policy produced an exit.
	DropNoVNRoute
	// DropRelay: a member-to-member relay along the bone path failed.
	DropRelay
	// DropTail: the final leg from the egress router to the destination
	// host failed (no underlay path, missing carried underlay address).
	DropTail
	// DropIntegrity: the per-delivery trace tag did not survive the wire
	// path bit-for-bit.
	DropIntegrity
	// DropNoBaseline: the IPv(N-1) baseline path between the hosts does
	// not exist, so the delivery cannot be accounted.
	DropNoBaseline

	numDropReasons
)

// String names the drop reason the way counters and traces print it.
func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropNotDeployed:
		return "not-deployed"
	case DropNoIngress:
		return "no-ingress"
	case DropEncap:
		return "encap"
	case DropDecap:
		return "decap"
	case DropNoVNRoute:
		return "no-vn-route"
	case DropRelay:
		return "relay"
	case DropTail:
		return "tail"
	case DropIntegrity:
		return "integrity"
	case DropNoBaseline:
		return "no-baseline"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// DropReasons lists every countable reason, for documentation and
// introspection dumps.
func DropReasons() []DropReason {
	out := make([]DropReason, 0, numDropReasons-1)
	for r := DropNotDeployed; r < numDropReasons; r++ {
		out = append(out, r)
	}
	return out
}

// Counters is the evolution-wide tally set. All methods are safe for
// concurrent use and never allocate on the hot path except the first
// time a given AS appears as an ingress. The zero value is ready to use.
//
// Counters touched on the send path are striped (see striped.go): each
// increment lands on one of several cache-line-padded cells and Snapshot
// aggregates them, so 64+ concurrent senders do not serialize on shared
// cache lines. Mutator-side counters (rebuilds, epochs, invalidations,
// live-plane events) stay single atomics — they are rare and their exact
// single-cell form is occasionally read in tests via deltas.
type Counters struct {
	sends        striped
	deliveries   striped
	redirects    striped
	redirectHits striped
	encaps       striped
	decaps       striped
	boneHops     striped
	flowHits     striped
	flowMisses   striped
	payloadBytes striped
	batchFlows   striped
	batchPackets striped
	// Graceful-degradation tallies (internal/core health/fallback layer):
	// baseline-path deliveries, in-line rescues, vN probes from fallback,
	// and flow-health state transitions. All ride the send path, so they
	// stripe like the delivery counters above.
	fallbackSends   striped
	fallbackRescues striped
	fallbackProbes  striped
	healthSuspect   striped
	healthFallback  striped
	healthProbation striped
	healthRecovered striped
	// healthSignals counts external failure signals (unacked reliable
	// sends, overlay peer suspicion) fed into the health layer by the live
	// plane — mutator-side, so a single atomic suffices.
	healthSignals atomic.Uint64
	boneRebuilds  atomic.Uint64
	rebuildsFail  atomic.Uint64
	epochs        atomic.Uint64
	invalDomain   atomic.Uint64
	invalInter    atomic.Uint64
	boneReused    atomic.Uint64
	boneRebuilt   atomic.Uint64
	// Live-plane fault-tolerance tallies (internal/overlaynet,
	// internal/livebridge): liveness probing, failover, retransmission,
	// epoch reconciliation and injected wire faults.
	probesSent     atomic.Uint64
	probesMissed   atomic.Uint64
	peersSuspected atomic.Uint64
	peersRecovered atomic.Uint64
	failoverAny    atomic.Uint64
	failoverRoute  atomic.Uint64
	retransmits    atomic.Uint64
	dedupDrops     atomic.Uint64
	reconDeltas    atomic.Uint64
	reconFallbacks atomic.Uint64
	faultDropped   atomic.Uint64
	faultDup       atomic.Uint64
	faultDelayed   atomic.Uint64
	drops          [numDropReasons]striped
	// ingressByAS is the per-AS ingress load: how many deliveries
	// entered the bone in each domain. A plain map under an RWMutex
	// rather than a sync.Map — the hot path is then an RLock plus one
	// typed map probe with no interface boxing, so counting an ingress
	// allocates nothing once the AS has been seen.
	ingressMu   sync.RWMutex
	ingressByAS map[topology.ASN]*striped
}

// Send counts one delivery attempt entering the send path.
func (c *Counters) Send() { c.sends.add(1) }

// Deliver counts one successful end-to-end delivery.
func (c *Counters) Deliver() { c.deliveries.add(1) }

// Drop counts one failed delivery under its reason.
func (c *Counters) Drop(r DropReason) {
	if r == DropNone || r >= numDropReasons {
		return
	}
	c.drops[r].add(1)
}

// Redirect counts one anycast redirect resolution; hit reports whether
// it was served from the redirect cache.
func (c *Counters) Redirect(hit bool) {
	c.redirects.add(1)
	if hit {
		c.redirectHits.add(1)
	}
}

// FlowHit counts one send whose full delivery skeleton (ingress, egress,
// tail, baseline) was served from the epoch's flow cache.
func (c *Counters) FlowHit() { c.flowHits.add(1) }

// FlowMiss counts one send that had to compute its delivery skeleton
// from the routing substrate (and, mutations permitting, cached it).
func (c *Counters) FlowMiss() { c.flowMisses.add(1) }

// HealthSignal counts n external failure signals (unacked reliable
// sends, overlay peer suspicion) applied to flow-health records.
func (c *Counters) HealthSignal(n int) {
	if n > 0 {
		c.healthSignals.Add(uint64(n))
	}
}

// PayloadBytes counts n payload bytes carried by successful deliveries.
func (c *Counters) PayloadBytes(n int) {
	if n > 0 {
		c.payloadBytes.add(uint64(n))
	}
}

// Ingress counts one delivery entering the deployment in domain as.
func (c *Counters) Ingress(as topology.ASN) { c.ingressN(as, 1) }

// Encap counts one tunnel encapsulation.
func (c *Counters) Encap() { c.encaps.add(1) }

// Decap counts one tunnel decapsulation.
func (c *Counters) Decap() { c.decaps.add(1) }

// BoneHops counts n vN-Bone virtual hops traversed by one delivery.
func (c *Counters) BoneHops(n int) {
	if n > 0 {
		c.boneHops.add(uint64(n))
	}
}

// BoneRebuild counts one successful vN-Bone reconstruction (deployment
// change or topology reconvergence). Failed build attempts are counted
// separately by RebuildFailed, never here.
func (c *Counters) BoneRebuild() { c.boneRebuilds.Add(1) }

// RebuildFailed counts one vN-Bone reconstruction attempt that errored
// (e.g. the candidate membership partitions the bone). The previous
// routing state stays live, so failures must not inflate BoneRebuilds.
func (c *Counters) RebuildFailed() { c.rebuildsFail.Add(1) }

// Epoch counts one routing-epoch publication: any mutation that swapped
// in a new immutable snapshot for the send path, whether or not the
// bone itself was rebuilt.
func (c *Counters) Epoch() { c.epochs.Add(1) }

// InvalDomain counts one domain-scoped invalidation: an event confined
// to a single AS (intra-link flap, membership change) that dropped only
// that domain's derived state.
func (c *Counters) InvalDomain() { c.invalDomain.Add(1) }

// InvalInter counts one inter-scope invalidation: an inter-domain link
// event that refreshed BGP and the cross-domain SPTs while every
// intra-domain SPT survived.
func (c *Counters) InvalInter() { c.invalInter.Add(1) }

// BoneDomains records, for one incremental bone build, how many
// per-domain intra meshes were reused from the previous bone versus
// recomputed from scratch.
func (c *Counters) BoneDomains(reused, rebuilt int) {
	if reused > 0 {
		c.boneReused.Add(uint64(reused))
	}
	if rebuilt > 0 {
		c.boneRebuilt.Add(uint64(rebuilt))
	}
}

// ProbeSent counts one liveness keepalive probe emitted toward a peer.
func (c *Counters) ProbeSent() { c.probesSent.Add(1) }

// ProbeMissed counts one probe round that elapsed without the previous
// probe to that peer being acknowledged.
func (c *Counters) ProbeMissed() { c.probesMissed.Add(1) }

// PeerSuspected counts one peer transitioning healthy → suspected after
// accumulating the configured number of consecutive misses.
func (c *Counters) PeerSuspected() { c.peersSuspected.Add(1) }

// PeerRecovered counts one suspected peer answering a probe again.
func (c *Counters) PeerRecovered() { c.peersRecovered.Add(1) }

// FailoverAnycast counts one anycast resolution that skipped a dead or
// suspected member (including a per-source resolver nomination that was
// overridden) and landed on the next-closest live member.
func (c *Counters) FailoverAnycast() { c.failoverAny.Add(1) }

// FailoverRoute counts one bone relay that bypassed a dead or suspected
// primary next-hop via an alternate.
func (c *Counters) FailoverRoute() { c.failoverRoute.Add(1) }

// Retransmit counts one retransmission attempt of an acked send.
func (c *Counters) Retransmit() { c.retransmits.Add(1) }

// DedupDrop counts one duplicate delivery suppressed by the receiver's
// dedup window (the duplicate is re-acked, never re-delivered).
func (c *Counters) DedupDrop() { c.dedupDrops.Add(1) }

// ReconcileDeltas counts n membership/route/address deltas applied to a
// running overlay by one epoch reconciliation.
func (c *Counters) ReconcileDeltas(n int) {
	if n > 0 {
		c.reconDeltas.Add(uint64(n))
	}
}

// ReconcileFallback counts one reconciliation that kept the last-good
// configuration because the published epoch was unusable.
func (c *Counters) ReconcileFallback() { c.reconFallbacks.Add(1) }

// FaultDrop counts one packet discarded by injected wire faults
// (drop-rate or partition).
func (c *Counters) FaultDrop() { c.faultDropped.Add(1) }

// FaultDuplicate counts one packet duplicated by injected wire faults.
func (c *Counters) FaultDuplicate() { c.faultDup.Add(1) }

// FaultDelay counts one packet deferred by injected wire faults.
func (c *Counters) FaultDelay() { c.faultDelayed.Add(1) }

// Snapshot is a point-in-time copy of a Counters. Each field is read
// atomically; the set as a whole is not a global atomic snapshot (see
// the package comment), but every counter is monotonic across snapshots.
type Snapshot struct {
	// Sends is the number of delivery attempts; Sends = Deliveries +
	// Drops once all in-flight deliveries settle.
	Sends uint64
	// Deliveries is the number of successful end-to-end deliveries.
	Deliveries uint64
	// Drops is the total failed deliveries; DropsByReason breaks it down
	// (only non-zero reasons appear).
	Drops         uint64
	DropsByReason map[DropReason]uint64
	// Redirects counts anycast redirect resolutions on the send path;
	// RedirectCacheHits of them were served from the redirect cache
	// without re-walking the BGP/IGP trajectory.
	Redirects, RedirectCacheHits uint64
	// Encaps/Decaps count tunnel operations across all stages.
	Encaps, Decaps uint64
	// BoneHops is the total vN-Bone virtual hops traversed.
	BoneHops uint64
	// DeliveryFlowHits/DeliveryFlowMisses count sends whose delivery
	// skeleton (ingress, egress, tail, baseline accounting) was served
	// from the epoch's flow cache versus computed from the routing
	// substrate. DeliveryPayloadBytes totals the payload bytes carried by
	// successful deliveries.
	DeliveryFlowHits, DeliveryFlowMisses, DeliveryPayloadBytes uint64
	// DeliveryBatchFlows/DeliveryBatchPackets measure the batched send
	// path: how many distinct flow skeletons SendBatch bursts
	// materialized and how many packets rode them. Loop sends never move
	// these, so BatchPackets/Sends is the batch-adoption ratio.
	DeliveryBatchFlows, DeliveryBatchPackets uint64
	// DeliveryFallbackSends/DeliveryFallbackRescues measure graceful
	// degradation: deliveries carried over the IPv(N-1) baseline path, and
	// the subset that were in-line rescues of a failed vN attempt.
	DeliveryFallbackSends, DeliveryFallbackRescues uint64
	// HealthProbes counts vN probes attempted by flows in the fallback
	// state; HealthSuspects/HealthFallbacks/HealthProbations/
	// HealthRecovered count flow-health state transitions; HealthSignals
	// counts external failure signals fed in by the live plane.
	HealthProbes, HealthSuspects, HealthFallbacks, HealthProbations, HealthRecovered, HealthSignals uint64
	// BoneRebuilds counts successful vN-Bone reconstructions;
	// RebuildsFailed counts attempts that errored and left the previous
	// routing state live.
	BoneRebuilds, RebuildsFailed uint64
	// Epochs counts routing-epoch publications (atomic snapshot swaps on
	// the send path).
	Epochs uint64
	// InvalDomain/InvalInter classify reconvergence events by
	// invalidation scope: one domain, or the inter-domain mesh.
	InvalDomain, InvalInter uint64
	// BoneDomainsReused/BoneDomainsRebuilt count per-domain intra meshes
	// carried over from the previous bone versus recomputed, across all
	// incremental builds.
	BoneDomainsReused, BoneDomainsRebuilt uint64
	// ProbesSent/ProbesMissed count live-overlay keepalive probes and
	// probe rounds that found the previous probe unanswered.
	ProbesSent, ProbesMissed uint64
	// PeersSuspected/PeersRecovered count peer-health transitions at
	// live nodes (healthy → suspected and back).
	PeersSuspected, PeersRecovered uint64
	// FailoversAnycast/FailoversRoute count anycast resolutions and bone
	// relays that routed around a dead or suspected target.
	FailoversAnycast, FailoversRoute uint64
	// Retransmits counts retransmission attempts of acked sends;
	// DedupDrops counts receiver-side duplicate suppressions.
	Retransmits, DedupDrops uint64
	// ReconcileDeltas counts in-place deltas applied to a running
	// overlay by epoch reconciliation; ReconcileFallbacks counts
	// reconciliations that kept the last-good state on an error epoch.
	ReconcileDeltas, ReconcileFallbacks uint64
	// FaultDropped/FaultDuplicated/FaultDelayed count packets the
	// injected wire-fault layer discarded, duplicated or deferred.
	FaultDropped, FaultDuplicated, FaultDelayed uint64
	// IngressByAS is the per-AS ingress load: deliveries that entered
	// the deployment in each participating domain.
	IngressByAS map[topology.ASN]uint64
}

// Snapshot returns a point-in-time copy of the counters.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{
		Sends:                   c.sends.load(),
		Deliveries:              c.deliveries.load(),
		Redirects:               c.redirects.load(),
		RedirectCacheHits:       c.redirectHits.load(),
		Encaps:                  c.encaps.load(),
		Decaps:                  c.decaps.load(),
		BoneHops:                c.boneHops.load(),
		DeliveryFlowHits:        c.flowHits.load(),
		DeliveryFlowMisses:      c.flowMisses.load(),
		DeliveryPayloadBytes:    c.payloadBytes.load(),
		DeliveryBatchFlows:      c.batchFlows.load(),
		DeliveryBatchPackets:    c.batchPackets.load(),
		DeliveryFallbackSends:   c.fallbackSends.load(),
		DeliveryFallbackRescues: c.fallbackRescues.load(),
		HealthProbes:            c.fallbackProbes.load(),
		HealthSuspects:          c.healthSuspect.load(),
		HealthFallbacks:         c.healthFallback.load(),
		HealthProbations:        c.healthProbation.load(),
		HealthRecovered:         c.healthRecovered.load(),
		HealthSignals:           c.healthSignals.Load(),
		BoneRebuilds:            c.boneRebuilds.Load(),
		RebuildsFailed:          c.rebuildsFail.Load(),
		Epochs:                  c.epochs.Load(),
		InvalDomain:             c.invalDomain.Load(),
		InvalInter:              c.invalInter.Load(),
		BoneDomainsReused:       c.boneReused.Load(),
		BoneDomainsRebuilt:      c.boneRebuilt.Load(),
		ProbesSent:              c.probesSent.Load(),
		ProbesMissed:            c.probesMissed.Load(),
		PeersSuspected:          c.peersSuspected.Load(),
		PeersRecovered:          c.peersRecovered.Load(),
		FailoversAnycast:        c.failoverAny.Load(),
		FailoversRoute:          c.failoverRoute.Load(),
		Retransmits:             c.retransmits.Load(),
		DedupDrops:              c.dedupDrops.Load(),
		ReconcileDeltas:         c.reconDeltas.Load(),
		ReconcileFallbacks:      c.reconFallbacks.Load(),
		FaultDropped:            c.faultDropped.Load(),
		FaultDuplicated:         c.faultDup.Load(),
		FaultDelayed:            c.faultDelayed.Load(),
		DropsByReason:           map[DropReason]uint64{},
		IngressByAS:             map[topology.ASN]uint64{},
	}
	for r := DropNotDeployed; r < numDropReasons; r++ {
		if n := c.drops[r].load(); n > 0 {
			s.DropsByReason[r] = n
			s.Drops += n
		}
	}
	c.ingressMu.RLock()
	for as, v := range c.ingressByAS {
		s.IngressByAS[as] = v.load()
	}
	c.ingressMu.RUnlock()
	return s
}

// Sub returns the per-field difference s − prev. It is the step-delta
// primitive used by invariant checkers (internal/chaos) and periodic
// scrapers: because every counter is monotonic, each field of the result
// is the activity that happened between the two snapshots. Map entries
// with a zero delta are omitted. Sub panics on counter regression (prev
// ahead of s), which can only mean the snapshots were taken from
// different Counters or swapped.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	sub := func(a, b uint64, what string) uint64 {
		if a < b {
			panic(fmt.Sprintf("trace: counter %s went backwards (%d → %d)", what, b, a))
		}
		return a - b
	}
	d := Snapshot{
		Sends:                   sub(s.Sends, prev.Sends, "sends"),
		Deliveries:              sub(s.Deliveries, prev.Deliveries, "deliveries"),
		Drops:                   sub(s.Drops, prev.Drops, "drops"),
		Redirects:               sub(s.Redirects, prev.Redirects, "redirects"),
		RedirectCacheHits:       sub(s.RedirectCacheHits, prev.RedirectCacheHits, "redirects.cache_hits"),
		Encaps:                  sub(s.Encaps, prev.Encaps, "tunnel.encaps"),
		Decaps:                  sub(s.Decaps, prev.Decaps, "tunnel.decaps"),
		BoneHops:                sub(s.BoneHops, prev.BoneHops, "bone.hops"),
		DeliveryFlowHits:        sub(s.DeliveryFlowHits, prev.DeliveryFlowHits, "delivery.flow_hits"),
		DeliveryFlowMisses:      sub(s.DeliveryFlowMisses, prev.DeliveryFlowMisses, "delivery.flow_misses"),
		DeliveryPayloadBytes:    sub(s.DeliveryPayloadBytes, prev.DeliveryPayloadBytes, "delivery.payload_bytes"),
		DeliveryBatchFlows:      sub(s.DeliveryBatchFlows, prev.DeliveryBatchFlows, "delivery.batch_flows"),
		DeliveryBatchPackets:    sub(s.DeliveryBatchPackets, prev.DeliveryBatchPackets, "delivery.batch_packets"),
		DeliveryFallbackSends:   sub(s.DeliveryFallbackSends, prev.DeliveryFallbackSends, "delivery.fallback_sends"),
		DeliveryFallbackRescues: sub(s.DeliveryFallbackRescues, prev.DeliveryFallbackRescues, "delivery.fallback_rescues"),
		HealthProbes:            sub(s.HealthProbes, prev.HealthProbes, "health.probes"),
		HealthSuspects:          sub(s.HealthSuspects, prev.HealthSuspects, "health.suspect"),
		HealthFallbacks:         sub(s.HealthFallbacks, prev.HealthFallbacks, "health.fallback"),
		HealthProbations:        sub(s.HealthProbations, prev.HealthProbations, "health.probation"),
		HealthRecovered:         sub(s.HealthRecovered, prev.HealthRecovered, "health.recovered"),
		HealthSignals:           sub(s.HealthSignals, prev.HealthSignals, "health.signals"),
		BoneRebuilds:            sub(s.BoneRebuilds, prev.BoneRebuilds, "bone.rebuilds"),
		RebuildsFailed:          sub(s.RebuildsFailed, prev.RebuildsFailed, "bone.rebuilds_failed"),
		Epochs:                  sub(s.Epochs, prev.Epochs, "epochs"),
		InvalDomain:             sub(s.InvalDomain, prev.InvalDomain, "invalidate.domain"),
		InvalInter:              sub(s.InvalInter, prev.InvalInter, "invalidate.inter"),
		BoneDomainsReused:       sub(s.BoneDomainsReused, prev.BoneDomainsReused, "bone.domains_reused"),
		BoneDomainsRebuilt:      sub(s.BoneDomainsRebuilt, prev.BoneDomainsRebuilt, "bone.domains_rebuilt"),
		ProbesSent:              sub(s.ProbesSent, prev.ProbesSent, "live.probes_sent"),
		ProbesMissed:            sub(s.ProbesMissed, prev.ProbesMissed, "live.probes_missed"),
		PeersSuspected:          sub(s.PeersSuspected, prev.PeersSuspected, "live.peers_suspected"),
		PeersRecovered:          sub(s.PeersRecovered, prev.PeersRecovered, "live.peers_recovered"),
		FailoversAnycast:        sub(s.FailoversAnycast, prev.FailoversAnycast, "live.failover_anycast"),
		FailoversRoute:          sub(s.FailoversRoute, prev.FailoversRoute, "live.failover_route"),
		Retransmits:             sub(s.Retransmits, prev.Retransmits, "live.retransmits"),
		DedupDrops:              sub(s.DedupDrops, prev.DedupDrops, "live.dedup_drops"),
		ReconcileDeltas:         sub(s.ReconcileDeltas, prev.ReconcileDeltas, "live.reconcile_deltas"),
		ReconcileFallbacks:      sub(s.ReconcileFallbacks, prev.ReconcileFallbacks, "live.reconcile_fallbacks"),
		FaultDropped:            sub(s.FaultDropped, prev.FaultDropped, "fault.dropped"),
		FaultDuplicated:         sub(s.FaultDuplicated, prev.FaultDuplicated, "fault.duplicated"),
		FaultDelayed:            sub(s.FaultDelayed, prev.FaultDelayed, "fault.delayed"),
		DropsByReason:           map[DropReason]uint64{},
		IngressByAS:             map[topology.ASN]uint64{},
	}
	for r, n := range s.DropsByReason {
		if delta := sub(n, prev.DropsByReason[r], "drops."+r.String()); delta > 0 {
			d.DropsByReason[r] = delta
		}
	}
	for as, n := range s.IngressByAS {
		if delta := sub(n, prev.IngressByAS[as], fmt.Sprintf("ingress.as%d", as)); delta > 0 {
			d.IngressByAS[as] = delta
		}
	}
	return d
}

// String renders the snapshot as sorted expvar-style "key value" lines —
// the format cmd/overlayd serves on its debug address.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sends %d\n", s.Sends)
	fmt.Fprintf(&b, "deliveries %d\n", s.Deliveries)
	fmt.Fprintf(&b, "drops %d\n", s.Drops)
	reasons := make([]DropReason, 0, len(s.DropsByReason))
	for r := range s.DropsByReason {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	for _, r := range reasons {
		fmt.Fprintf(&b, "drops.%s %d\n", r, s.DropsByReason[r])
	}
	fmt.Fprintf(&b, "redirects %d\n", s.Redirects)
	fmt.Fprintf(&b, "redirects.cache_hits %d\n", s.RedirectCacheHits)
	fmt.Fprintf(&b, "delivery.flow_hits %d\n", s.DeliveryFlowHits)
	fmt.Fprintf(&b, "delivery.flow_misses %d\n", s.DeliveryFlowMisses)
	fmt.Fprintf(&b, "delivery.payload_bytes %d\n", s.DeliveryPayloadBytes)
	fmt.Fprintf(&b, "delivery.batch_flows %d\n", s.DeliveryBatchFlows)
	fmt.Fprintf(&b, "delivery.batch_packets %d\n", s.DeliveryBatchPackets)
	fmt.Fprintf(&b, "delivery.fallback_sends %d\n", s.DeliveryFallbackSends)
	fmt.Fprintf(&b, "delivery.fallback_rescues %d\n", s.DeliveryFallbackRescues)
	fmt.Fprintf(&b, "health.probes %d\n", s.HealthProbes)
	fmt.Fprintf(&b, "health.suspect %d\n", s.HealthSuspects)
	fmt.Fprintf(&b, "health.fallback %d\n", s.HealthFallbacks)
	fmt.Fprintf(&b, "health.probation %d\n", s.HealthProbations)
	fmt.Fprintf(&b, "health.recovered %d\n", s.HealthRecovered)
	fmt.Fprintf(&b, "health.signals %d\n", s.HealthSignals)
	fmt.Fprintf(&b, "tunnel.encaps %d\n", s.Encaps)
	fmt.Fprintf(&b, "tunnel.decaps %d\n", s.Decaps)
	fmt.Fprintf(&b, "bone.hops %d\n", s.BoneHops)
	fmt.Fprintf(&b, "bone.rebuilds %d\n", s.BoneRebuilds)
	fmt.Fprintf(&b, "bone.rebuilds_failed %d\n", s.RebuildsFailed)
	fmt.Fprintf(&b, "bone.domains_reused %d\n", s.BoneDomainsReused)
	fmt.Fprintf(&b, "bone.domains_rebuilt %d\n", s.BoneDomainsRebuilt)
	fmt.Fprintf(&b, "epochs %d\n", s.Epochs)
	fmt.Fprintf(&b, "invalidate.domain %d\n", s.InvalDomain)
	fmt.Fprintf(&b, "invalidate.inter %d\n", s.InvalInter)
	fmt.Fprintf(&b, "live.probes_sent %d\n", s.ProbesSent)
	fmt.Fprintf(&b, "live.probes_missed %d\n", s.ProbesMissed)
	fmt.Fprintf(&b, "live.peers_suspected %d\n", s.PeersSuspected)
	fmt.Fprintf(&b, "live.peers_recovered %d\n", s.PeersRecovered)
	fmt.Fprintf(&b, "live.failover_anycast %d\n", s.FailoversAnycast)
	fmt.Fprintf(&b, "live.failover_route %d\n", s.FailoversRoute)
	fmt.Fprintf(&b, "live.retransmits %d\n", s.Retransmits)
	fmt.Fprintf(&b, "live.dedup_drops %d\n", s.DedupDrops)
	fmt.Fprintf(&b, "live.reconcile_deltas %d\n", s.ReconcileDeltas)
	fmt.Fprintf(&b, "live.reconcile_fallbacks %d\n", s.ReconcileFallbacks)
	fmt.Fprintf(&b, "fault.dropped %d\n", s.FaultDropped)
	fmt.Fprintf(&b, "fault.duplicated %d\n", s.FaultDuplicated)
	fmt.Fprintf(&b, "fault.delayed %d\n", s.FaultDelayed)
	ases := make([]topology.ASN, 0, len(s.IngressByAS))
	for as := range s.IngressByAS {
		ases = append(ases, as)
	}
	sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
	for _, as := range ases {
		fmt.Fprintf(&b, "ingress.as%d %d\n", as, s.IngressByAS[as])
	}
	return b.String()
}
