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

// counterID indexes one scalar counter's cell. The send path's counters
// come first, so a CounterBatch carries exactly the prefix below
// numBatched and folds into the same index space.
type counterID uint8

const (
	cSends counterID = iota
	cDeliveries
	cRedirects
	cRedirectHits
	cEncaps
	cDecaps
	cBoneHops
	cFlowHits
	cFlowMisses
	cPayloadBytes
	cBatchFlows
	cBatchPackets
	cFallbackSends
	cFallbackRescues
	cFallbackProbes
	cHealthSuspect
	cHealthFallback
	cHealthProbation
	cHealthRecovered
	// numBatched ends the send path's counters: a send tallies these in
	// its CounterBatch. The rest move on mutator-side and live-plane
	// events and count straight into Counters.
	numBatched
)

const (
	cHealthSignals counterID = numBatched + iota
	cBoneRebuilds
	cRebuildsFail
	cEpochs
	cInvalDomain
	cInvalInter
	cBoneReused
	cBoneRebuilt
	cProbesSent
	cProbesMissed
	cPeersSuspected
	cPeersRecovered
	cFailoverAny
	cFailoverRoute
	cRetransmits
	cDedupDrops
	cReconDeltas
	cReconFallbacks
	cFaultDropped
	cFaultDup
	cFaultDelayed
	numCounters
)

// counterRow declares one scalar counter: the cell it counts in, the
// dotted name String prints and OBSERVABILITY.md documents, and the
// Snapshot field that carries its value.
type counterRow struct {
	id    counterID
	name  string
	field func(*Snapshot) *uint64
}

// counterTable is the one declaration of the scalar counter set, in the
// order String prints it. Snapshot, Sub, String and the doc check in
// counters_test.go walk it; adding a counter is a row here, its
// counterID, its Snapshot field, its method and its OBSERVABILITY.md row
// (TestCounterTable and TestCounterDocs hold the five together).
var counterTable = [numCounters]counterRow{
	{cSends, "sends", func(s *Snapshot) *uint64 { return &s.Sends }},
	{cDeliveries, "deliveries", func(s *Snapshot) *uint64 { return &s.Deliveries }},
	// String prints the drops total and its per-reason lines here, ahead
	// of dropsBefore.
	{cRedirects, "redirects", func(s *Snapshot) *uint64 { return &s.Redirects }},
	{cRedirectHits, "redirects.cache_hits", func(s *Snapshot) *uint64 { return &s.RedirectCacheHits }},
	{cFlowHits, "delivery.flow_hits", func(s *Snapshot) *uint64 { return &s.DeliveryFlowHits }},
	{cFlowMisses, "delivery.flow_misses", func(s *Snapshot) *uint64 { return &s.DeliveryFlowMisses }},
	{cPayloadBytes, "delivery.payload_bytes", func(s *Snapshot) *uint64 { return &s.DeliveryPayloadBytes }},
	{cBatchFlows, "delivery.batch_flows", func(s *Snapshot) *uint64 { return &s.DeliveryBatchFlows }},
	{cBatchPackets, "delivery.batch_packets", func(s *Snapshot) *uint64 { return &s.DeliveryBatchPackets }},
	{cFallbackSends, "delivery.fallback_sends", func(s *Snapshot) *uint64 { return &s.DeliveryFallbackSends }},
	{cFallbackRescues, "delivery.fallback_rescues", func(s *Snapshot) *uint64 { return &s.DeliveryFallbackRescues }},
	{cFallbackProbes, "health.probes", func(s *Snapshot) *uint64 { return &s.HealthProbes }},
	{cHealthSuspect, "health.suspect", func(s *Snapshot) *uint64 { return &s.HealthSuspects }},
	{cHealthFallback, "health.fallback", func(s *Snapshot) *uint64 { return &s.HealthFallbacks }},
	{cHealthProbation, "health.probation", func(s *Snapshot) *uint64 { return &s.HealthProbations }},
	{cHealthRecovered, "health.recovered", func(s *Snapshot) *uint64 { return &s.HealthRecovered }},
	{cHealthSignals, "health.signals", func(s *Snapshot) *uint64 { return &s.HealthSignals }},
	{cEncaps, "tunnel.encaps", func(s *Snapshot) *uint64 { return &s.Encaps }},
	{cDecaps, "tunnel.decaps", func(s *Snapshot) *uint64 { return &s.Decaps }},
	{cBoneHops, "bone.hops", func(s *Snapshot) *uint64 { return &s.BoneHops }},
	{cBoneRebuilds, "bone.rebuilds", func(s *Snapshot) *uint64 { return &s.BoneRebuilds }},
	{cRebuildsFail, "bone.rebuilds_failed", func(s *Snapshot) *uint64 { return &s.RebuildsFailed }},
	{cBoneReused, "bone.domains_reused", func(s *Snapshot) *uint64 { return &s.BoneDomainsReused }},
	{cBoneRebuilt, "bone.domains_rebuilt", func(s *Snapshot) *uint64 { return &s.BoneDomainsRebuilt }},
	{cEpochs, "epochs", func(s *Snapshot) *uint64 { return &s.Epochs }},
	{cInvalDomain, "invalidate.domain", func(s *Snapshot) *uint64 { return &s.InvalDomain }},
	{cInvalInter, "invalidate.inter", func(s *Snapshot) *uint64 { return &s.InvalInter }},
	{cProbesSent, "live.probes_sent", func(s *Snapshot) *uint64 { return &s.ProbesSent }},
	{cProbesMissed, "live.probes_missed", func(s *Snapshot) *uint64 { return &s.ProbesMissed }},
	{cPeersSuspected, "live.peers_suspected", func(s *Snapshot) *uint64 { return &s.PeersSuspected }},
	{cPeersRecovered, "live.peers_recovered", func(s *Snapshot) *uint64 { return &s.PeersRecovered }},
	{cFailoverAny, "live.failover_anycast", func(s *Snapshot) *uint64 { return &s.FailoversAnycast }},
	{cFailoverRoute, "live.failover_route", func(s *Snapshot) *uint64 { return &s.FailoversRoute }},
	{cRetransmits, "live.retransmits", func(s *Snapshot) *uint64 { return &s.Retransmits }},
	{cDedupDrops, "live.dedup_drops", func(s *Snapshot) *uint64 { return &s.DedupDrops }},
	{cReconDeltas, "live.reconcile_deltas", func(s *Snapshot) *uint64 { return &s.ReconcileDeltas }},
	{cReconFallbacks, "live.reconcile_fallbacks", func(s *Snapshot) *uint64 { return &s.ReconcileFallbacks }},
	{cFaultDropped, "fault.dropped", func(s *Snapshot) *uint64 { return &s.FaultDropped }},
	{cFaultDup, "fault.duplicated", func(s *Snapshot) *uint64 { return &s.FaultDuplicated }},
	{cFaultDelayed, "fault.delayed", func(s *Snapshot) *uint64 { return &s.FaultDelayed }},
}

// dropsBefore is the row String prints the drops block ahead of, and
// dropsName the key of the drops total.
const (
	dropsBefore = cRedirects
	dropsName   = "drops"
)

// Counters is the evolution-wide tally set. All methods are safe for
// concurrent use and never allocate on the hot path except the first
// time a given AS appears as an ingress. The zero value is ready to use.
//
// The table is striped (see striped.go): an increment lands on one of
// several cache-line-padded stripes and Snapshot sums them, so 64+
// concurrent senders do not serialize on shared cache lines.
type Counters struct {
	// s is the scalar counters and the drop reasons, stripe-major.
	s [stripes]block
	// ingressByAS is the per-AS ingress load: how many deliveries
	// entered the bone in each domain. The map is published copy-on-write
	// — a first-seen AS copies it under ingressMu, and ASes are bounded by
	// the topology — so counting an ingress is one pointer load and one
	// typed map probe, with no lock and no allocation once the AS has been
	// seen.
	ingressByAS atomic.Pointer[map[topology.ASN]*striped]
	ingressMu   sync.Mutex
}

// Send counts one delivery attempt entering the send path.
func (c *Counters) Send() { c.add(cSends, 1) }

// Deliver counts one successful end-to-end delivery.
func (c *Counters) Deliver() { c.add(cDeliveries, 1) }

// Drop counts one failed delivery under its reason.
func (c *Counters) Drop(r DropReason) {
	if r == DropNone || r >= numDropReasons {
		return
	}
	c.add(dropCell(r), 1)
}

// Redirect counts one anycast redirect resolution; hit reports whether
// it was served from the redirect cache.
func (c *Counters) Redirect(hit bool) {
	c.add(cRedirects, 1)
	if hit {
		c.add(cRedirectHits, 1)
	}
}

// FlowHit counts one send whose full delivery skeleton (ingress, egress,
// tail, baseline) was served from the epoch's flow cache.
func (c *Counters) FlowHit() { c.add(cFlowHits, 1) }

// HealthSignal counts n external failure signals (unacked reliable
// sends, overlay peer suspicion) applied to flow-health records.
func (c *Counters) HealthSignal(n int) {
	if n > 0 {
		c.add(cHealthSignals, uint64(n))
	}
}

// PayloadBytes counts n payload bytes carried by successful deliveries.
func (c *Counters) PayloadBytes(n int) {
	if n > 0 {
		c.add(cPayloadBytes, uint64(n))
	}
}

// Ingress counts one delivery entering the deployment in domain as.
func (c *Counters) Ingress(as topology.ASN) { c.ingressN(pick(), as, 1) }

// Encap counts one tunnel encapsulation.
func (c *Counters) Encap() { c.add(cEncaps, 1) }

// Decap counts one tunnel decapsulation.
func (c *Counters) Decap() { c.add(cDecaps, 1) }

// BoneHops counts n vN-Bone virtual hops traversed by one delivery.
func (c *Counters) BoneHops(n int) {
	if n > 0 {
		c.add(cBoneHops, uint64(n))
	}
}

// BoneRebuild counts one successful vN-Bone reconstruction (deployment
// change or topology reconvergence). Failed build attempts are counted
// separately by RebuildFailed, never here.
func (c *Counters) BoneRebuild() { c.add(cBoneRebuilds, 1) }

// RebuildFailed counts one vN-Bone reconstruction attempt that errored
// (e.g. the candidate membership partitions the bone). The previous
// routing state stays live, so failures must not inflate BoneRebuilds.
func (c *Counters) RebuildFailed() { c.add(cRebuildsFail, 1) }

// Epoch counts one routing-epoch publication: any mutation that swapped
// in a new immutable snapshot for the send path, whether or not the
// bone itself was rebuilt.
func (c *Counters) Epoch() { c.add(cEpochs, 1) }

// InvalDomain counts one domain-scoped invalidation: an event confined
// to a single AS (intra-link flap, membership change) that dropped only
// that domain's derived state.
func (c *Counters) InvalDomain() { c.add(cInvalDomain, 1) }

// InvalInter counts one inter-scope invalidation: an inter-domain link
// event that refreshed BGP and the cross-domain SPTs while every
// intra-domain SPT survived.
func (c *Counters) InvalInter() { c.add(cInvalInter, 1) }

// BoneDomains records, for one incremental bone build, how many
// per-domain intra meshes were reused from the previous bone versus
// recomputed from scratch.
func (c *Counters) BoneDomains(reused, rebuilt int) {
	if reused > 0 {
		c.add(cBoneReused, uint64(reused))
	}
	if rebuilt > 0 {
		c.add(cBoneRebuilt, uint64(rebuilt))
	}
}

// ProbeSent counts one liveness keepalive probe emitted toward a peer.
func (c *Counters) ProbeSent() { c.add(cProbesSent, 1) }

// ProbeMissed counts one probe round that elapsed without the previous
// probe to that peer being acknowledged.
func (c *Counters) ProbeMissed() { c.add(cProbesMissed, 1) }

// PeerSuspected counts one peer transitioning healthy → suspected after
// accumulating the configured number of consecutive misses.
func (c *Counters) PeerSuspected() { c.add(cPeersSuspected, 1) }

// PeerRecovered counts one suspected peer answering a probe again.
func (c *Counters) PeerRecovered() { c.add(cPeersRecovered, 1) }

// FailoverAnycast counts one anycast resolution that skipped a dead or
// suspected member (including a per-source resolver nomination that was
// overridden) and landed on the next-closest live member.
func (c *Counters) FailoverAnycast() { c.add(cFailoverAny, 1) }

// FailoverRoute counts one bone relay that bypassed a dead or suspected
// primary next-hop via an alternate.
func (c *Counters) FailoverRoute() { c.add(cFailoverRoute, 1) }

// Retransmit counts one retransmission attempt of an acked send.
func (c *Counters) Retransmit() { c.add(cRetransmits, 1) }

// DedupDrop counts one duplicate delivery suppressed by the receiver's
// dedup window (the duplicate is re-acked, never re-delivered).
func (c *Counters) DedupDrop() { c.add(cDedupDrops, 1) }

// ReconcileDeltas counts n membership/route/address deltas applied to a
// running overlay by one epoch reconciliation.
func (c *Counters) ReconcileDeltas(n int) {
	if n > 0 {
		c.add(cReconDeltas, uint64(n))
	}
}

// ReconcileFallback counts one reconciliation that kept the last-good
// configuration because the published epoch was unusable.
func (c *Counters) ReconcileFallback() { c.add(cReconFallbacks, 1) }

// FaultDrop counts one packet discarded by injected wire faults
// (drop-rate or partition).
func (c *Counters) FaultDrop() { c.add(cFaultDropped, 1) }

// FaultDuplicate counts one packet duplicated by injected wire faults.
func (c *Counters) FaultDuplicate() { c.add(cFaultDup, 1) }

// FaultDelay counts one packet deferred by injected wire faults.
func (c *Counters) FaultDelay() { c.add(cFaultDelayed, 1) }

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
	// memoised — from the epoch's flow cache, or for a batch's repeat
	// destinations from the batch's own flow table — versus computed from
	// the routing substrate. DeliveryPayloadBytes totals the payload bytes
	// carried by successful deliveries.
	DeliveryFlowHits, DeliveryFlowMisses, DeliveryPayloadBytes uint64
	// DeliveryBatchFlows/DeliveryBatchPackets measure the burst send
	// path: the flow skeletons AppendSendBurst materialized, one per
	// burst, and how many packets rode them. Loop sends never move these,
	// so BatchPackets/Sends is the batch-adoption ratio.
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
		DropsByReason: map[DropReason]uint64{},
		IngressByAS:   map[topology.ASN]uint64{},
	}
	for _, r := range counterTable {
		*r.field(&s) = c.load(r.id)
	}
	for r := DropNotDeployed; r < numDropReasons; r++ {
		if n := c.load(dropCell(r)); n > 0 {
			s.DropsByReason[r] = n
			s.Drops += n
		}
	}
	for as, v := range c.ingressMap() {
		s.IngressByAS[as] = v.load()
	}
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
		Drops:         sub(s.Drops, prev.Drops, dropsName),
		DropsByReason: map[DropReason]uint64{},
		IngressByAS:   map[topology.ASN]uint64{},
	}
	for _, r := range counterTable {
		*r.field(&d) = sub(*r.field(&s), *r.field(&prev), r.name)
	}
	for r, n := range s.DropsByReason {
		if delta := sub(n, prev.DropsByReason[r], dropsName+"."+r.String()); delta > 0 {
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
	for _, r := range counterTable {
		if r.id == dropsBefore {
			fmt.Fprintf(&b, "%s %d\n", dropsName, s.Drops)
			reasons := make([]DropReason, 0, len(s.DropsByReason))
			for reason := range s.DropsByReason {
				reasons = append(reasons, reason)
			}
			sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
			for _, reason := range reasons {
				fmt.Fprintf(&b, "%s.%s %d\n", dropsName, reason, s.DropsByReason[reason])
			}
		}
		fmt.Fprintf(&b, "%s %d\n", r.name, *r.field(&s))
	}
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
