package trace

import (
	"strings"
	"sync"
	"testing"

	"github.com/evolvable-net/evolve/internal/topology"
)

// TestKindStrings pins every Kind to a stable label (the labels appear
// verbatim in path traces quoted by OBSERVABILITY.md).
func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindSend:     "send",
		KindRedirect: "redirect",
		KindBoneHop:  "bone-hop",
		KindEgress:   "egress",
		KindEncap:    "encap",
		KindDecap:    "decap",
		KindDeliver:  "deliver",
		KindDrop:     "drop",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind rendered %q", got)
	}
}

// TestDropReasonStrings checks every countable reason has a real label
// of its own.
func TestDropReasonStrings(t *testing.T) {
	seen := map[string]bool{}
	for r := DropNotDeployed; r < numDropReasons; r++ {
		s := r.String()
		if s == "none" || strings.HasPrefix(s, "reason(") {
			t.Errorf("reason %d has no label: %q", r, s)
		}
		if seen[s] {
			t.Errorf("duplicate reason label %q", s)
		}
		seen[s] = true
	}
}

// TestRecorder exercises record/copy/reset semantics.
func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.Event(Event{Kind: KindSend, Seq: 7})
	r.Event(Event{Kind: KindDeliver, Seq: 7, Cost: 42})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != KindSend || evs[1].Cost != 42 {
		t.Fatalf("events = %+v", evs)
	}
	// The returned slice is a copy: mutating it must not affect the
	// recorder.
	evs[0].Kind = KindDrop
	if r.Events()[0].Kind != KindSend {
		t.Error("Events() aliases internal storage")
	}
	r.Reset()
	if len(r.Events()) != 0 {
		t.Error("Reset did not clear events")
	}
}

// TestRecorderConcurrent hammers one Recorder from many goroutines
// (meaningful under -race via the CI race job's core tests, and the
// plain test still checks nothing is lost).
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	const writers, each = 16, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Event(Event{Kind: KindBoneHop})
			}
		}()
	}
	wg.Wait()
	if got := len(r.Events()); got != writers*each {
		t.Errorf("recorded %d events, want %d", got, writers*each)
	}
}

// TestCountersSnapshot covers what TestCounterTable's single bumps do
// not: totals above one, the no-op arguments, and the two map-shaped
// families (drop reasons, per-AS ingress).
func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.Send()
	c.Send()
	c.Send()
	countDrop(&c, DropNoIngress)
	countDrop(&c, DropTail)
	countDrop(&c, DropNone)        // never counted
	countDrop(&c, DropReason(200)) // out of range: ignored
	c.Ingress(topology.ASN(3))
	c.Ingress(topology.ASN(3))
	c.Ingress(topology.ASN(9))
	c.BoneHops(4)
	c.BoneHops(0) // no-op
	c.PayloadBytes(-1)
	c.HealthSignal(0)
	c.ReconcileDeltas(-2)
	c.BoneDomains(0, -1)

	s := c.Snapshot()
	if s.Sends != 3 || s.BoneHops != 4 {
		t.Errorf("sends/hops = %d/%d, want 3/4", s.Sends, s.BoneHops)
	}
	if s.DeliveryPayloadBytes+s.HealthSignals+s.ReconcileDeltas+s.BoneDomainsReused+s.BoneDomainsRebuilt != 0 {
		t.Errorf("a non-positive argument counted: %+v", s)
	}
	if s.Drops != 2 || s.DropsByReason[DropNoIngress] != 1 || s.DropsByReason[DropTail] != 1 {
		t.Errorf("drops = %d %v, want 2 split over no-ingress and tail", s.Drops, s.DropsByReason)
	}
	if len(s.DropsByReason) != 2 {
		t.Errorf("zero-count reasons leaked into the snapshot: %v", s.DropsByReason)
	}
	if s.IngressByAS[3] != 2 || s.IngressByAS[9] != 1 {
		t.Errorf("ingress by AS = %v", s.IngressByAS)
	}
}

// TestSnapshotString pins the expvar-style output overlayd serves, byte
// for byte: key order, the drops block between deliveries and
// redirects, the ingress lines last.
func TestSnapshotString(t *testing.T) {
	var c Counters
	c.Send()
	c.Deliver()
	countDrop(&c, DropTail)
	c.Ingress(topology.ASN(2))
	const want = `sends 1
deliveries 1
drops 1
drops.tail 1
redirects 0
redirects.cache_hits 0
delivery.flow_hits 0
delivery.flow_misses 0
delivery.payload_bytes 0
delivery.batch_flows 0
delivery.batch_packets 0
delivery.fallback_sends 0
delivery.fallback_rescues 0
health.probes 0
health.fallback 0
health.probation 0
health.recovered 0
health.signals 0
tunnel.encaps 0
tunnel.decaps 0
bone.hops 0
bone.rebuilds 0
bone.rebuilds_failed 0
bone.domains_reused 0
bone.domains_rebuilt 0
epochs 0
invalidate.domain 0
invalidate.inter 0
live.probes_sent 0
live.probes_missed 0
live.peers_suspected 0
live.peers_recovered 0
live.failover_anycast 0
live.failover_route 0
live.retransmits 0
live.dedup_drops 0
live.reconcile_deltas 0
live.reconcile_fallbacks 0
fault.dropped 0
fault.duplicated 0
fault.delayed 0
ingress.as2 1
`
	if got := c.Snapshot().String(); got != want {
		t.Errorf("snapshot output changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestFormat checks the numbered per-hop rendering, including the nil
// name fallback.
func TestFormat(t *testing.T) {
	evs := []Event{
		{Kind: KindSend, Router: 4, AS: 1},
		{Kind: KindEncap, Router: -1, Src: 258, Dst: 513},
		{Kind: KindBoneHop, Router: 6, AS: 2, Cost: 9},
		{Kind: KindEgress, Router: 6, AS: 2, Detail: EgressNative},
		{Kind: KindDrop, Router: -1, Reason: DropTail},
	}
	out := Format(evs, func(id topology.RouterID) string { return "R" })
	for _, want := range []string{
		"0  send", "R (AS1)", "outer ", "bone-hop R (AS2) cost=9",
		"[native]", "reason=tail",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted trace missing %q:\n%s", want, out)
		}
	}
	if got := Format(evs[:1], nil); !strings.Contains(got, "router-4") {
		t.Errorf("nil name fallback produced %q", got)
	}
}

// TestSnapshotSub checks deltas against a non-zero previous snapshot
// (TestCounterTable takes every scalar's delta from zero) and the map
// families' omit-when-zero rule.
func TestSnapshotSub(t *testing.T) {
	var c Counters
	c.Send()
	c.Deliver()
	c.Redirect(false)
	c.Ingress(7)
	prev := c.Snapshot()

	c.Send()
	countDrop(&c, DropTail)
	c.Redirect(true)
	c.Ingress(7)
	c.Ingress(9)
	cur := c.Snapshot()

	d := cur.Sub(prev)
	if d.Sends != 1 || d.Deliveries != 0 || d.Drops != 1 {
		t.Errorf("delta sends/deliveries/drops = %d/%d/%d", d.Sends, d.Deliveries, d.Drops)
	}
	if d.DropsByReason[DropTail] != 1 {
		t.Errorf("delta drops.tail = %d", d.DropsByReason[DropTail])
	}
	if d.Redirects != 1 || d.RedirectCacheHits != 1 {
		t.Errorf("delta redirects = %d hits %d", d.Redirects, d.RedirectCacheHits)
	}
	if d.IngressByAS[7] != 1 || d.IngressByAS[9] != 1 {
		t.Errorf("delta ingress = %v", d.IngressByAS)
	}
	// Zero-delta map entries are omitted, not emitted as zeros.
	if _, ok := d.DropsByReason[DropNoIngress]; ok {
		t.Error("zero delta present in DropsByReason")
	}

	// Subtracting identical snapshots yields all-zero deltas.
	z := cur.Sub(cur)
	if z.Sends != 0 || z.Drops != 0 || len(z.IngressByAS) != 0 || len(z.DropsByReason) != 0 {
		t.Errorf("self-delta not zero: %+v", z)
	}
}

func TestSnapshotSubPanicsOnRegression(t *testing.T) {
	var c Counters
	c.Send()
	newer := c.Snapshot()
	c.Send()
	older := c.Snapshot()
	defer func() {
		if recover() == nil {
			t.Error("Sub of swapped snapshots did not panic")
		}
	}()
	_ = newer.Sub(older)
}
