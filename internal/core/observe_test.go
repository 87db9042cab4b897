package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// TestCountersUnderConcurrentSends drives 64 goroutines of Sends against
// one Evolution while a poller reads Snapshot() continuously: every
// counter must be monotonic across snapshots, and once the senders
// settle the totals must be exact. Meaningful under -race (the CI race
// job covers this package).
func TestCountersUnderConcurrentSends(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	e.DeployDomain(n.DomainByName("T1").ASN, 0)
	if err := e.Ready(); err != nil {
		t.Fatal(err)
	}
	base := e.Snapshot()
	if base.BoneRebuilds == 0 {
		t.Fatal("deployment should have counted at least one bone rebuild")
	}

	// Poll snapshots while the senders run. Each counter is read
	// atomically, so each must be monotonic; the set as a whole is not a
	// global atomic snapshot, so cross-counter identities are only
	// asserted after quiescence. The poller is running before the first
	// sender starts.
	stop := make(chan struct{})
	started := make(chan struct{})
	pollDone := make(chan error, 1)
	go func() {
		prev := base
		close(started)
		for {
			s := e.Snapshot()
			for _, c := range [][2]uint64{
				{prev.Sends, s.Sends},
				{prev.Deliveries, s.Deliveries},
				{prev.Drops, s.Drops},
				{prev.Redirects, s.Redirects},
				{prev.RedirectCacheHits, s.RedirectCacheHits},
				{prev.Encaps, s.Encaps},
				{prev.Decaps, s.Decaps},
				{prev.BoneHops, s.BoneHops},
			} {
				if c[1] < c[0] {
					pollDone <- fmt.Errorf("counter went backwards: %d then %d (%+v → %+v)", c[0], c[1], prev, s)
					return
				}
			}
			prev = s
			select {
			case <-stop:
				pollDone <- nil
				return
			default:
			}
		}
	}()
	<-started

	const senders, perSender = 64, 25
	hosts := n.Hosts
	var wg sync.WaitGroup
	var sendErr atomic.Value
	for g := 0; g < senders; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := hosts[g%len(hosts)]
			dst := hosts[(g+7)%len(hosts)]
			if src.ID == dst.ID {
				dst = hosts[(g+8)%len(hosts)]
			}
			for i := 0; i < perSender; i++ {
				if _, err := e.Send(src, dst, []byte{byte(g)}); err != nil {
					sendErr.Store(fmt.Errorf("sender %d: %w", g, err))
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	if err := <-pollDone; err != nil {
		t.Fatal(err)
	}
	if v := sendErr.Load(); v != nil {
		t.Fatal(v)
	}

	const total = senders * perSender
	s := e.Snapshot()
	if got := s.Sends - base.Sends; got != total {
		t.Errorf("sends: got %d, want %d", got, total)
	}
	if got := s.Deliveries - base.Deliveries; got != total {
		t.Errorf("deliveries: got %d, want %d", got, total)
	}
	if s.Drops != base.Drops {
		t.Errorf("drops: got %d new, want 0 (%v)", s.Drops-base.Drops, s.DropsByReason)
	}
	if got := s.Redirects - base.Redirects; got != total {
		t.Errorf("redirects: got %d, want %d (one per send)", got, total)
	}
	// A sender can miss the redirect cache on its first send only (senders
	// sharing a source host may all start before the first of them has
	// stored); everything else must be a hit.
	if hits := s.RedirectCacheHits - base.RedirectCacheHits; hits < total-senders {
		t.Errorf("cache hits: got %d, want ≥ %d", hits, total-senders)
	}
	var ingress uint64
	for _, v := range s.IngressByAS {
		ingress += v
	}
	var baseIngress uint64
	for _, v := range base.IngressByAS {
		baseIngress += v
	}
	if got := ingress - baseIngress; got != total {
		t.Errorf("per-AS ingress load: got %d, want %d", got, total)
	}
}

// TestSendTracedSpan checks the shape of a single delivery's span: it
// opens with send, closes with deliver, and contains exactly one
// redirect (the ingress choice) and one egress decision, all stamped
// with the same sequence tag.
func TestSendTracedSpan(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	if err := e.Ready(); err != nil {
		t.Fatal(err)
	}
	src := n.HostsIn(n.DomainByName("S0.0").ASN)[0]
	dst := n.HostsIn(n.DomainByName("S1.1").ASN)[0]

	rec := trace.NewRecorder()
	d, err := e.SendTraced(src, dst, []byte("x"), rec)
	if err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if len(evs) < 4 {
		t.Fatalf("got %d events, want at least send/redirect/egress/deliver:\n%s",
			len(evs), e.FormatTrace(evs))
	}
	if evs[0].Kind != trace.KindSend {
		t.Errorf("first event is %s, want send", evs[0].Kind)
	}
	if last := evs[len(evs)-1]; last.Kind != trace.KindDeliver {
		t.Errorf("last event is %s, want deliver", last.Kind)
	}
	counts := map[trace.Kind]int{}
	hops := 0
	for _, ev := range evs {
		counts[ev.Kind]++
		if ev.Seq != evs[0].Seq {
			t.Errorf("event %s has seq %d, want %d (one span, one tag)", ev.Kind, ev.Seq, evs[0].Seq)
		}
		if ev.Kind == trace.KindBoneHop {
			hops++
		}
	}
	if counts[trace.KindRedirect] != 1 {
		t.Errorf("got %d redirect events, want exactly 1", counts[trace.KindRedirect])
	}
	if counts[trace.KindEgress] != 1 {
		t.Errorf("got %d egress events, want exactly 1", counts[trace.KindEgress])
	}
	if hops != d.VNHops {
		t.Errorf("trace shows %d bone hops, delivery accounted %d", hops, d.VNHops)
	}
	if counts[trace.KindEncap] == 0 || counts[trace.KindDecap] == 0 {
		t.Errorf("span has no tunnel events: %v", counts)
	}
}

// TestDropCounting checks that failed sends land in the drop taxonomy:
// sending before any router deploys is a not-deployed drop.
func TestDropCounting(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	src := n.Hosts[0]
	dst := n.Hosts[len(n.Hosts)-1]
	if _, err := e.Send(src, dst, nil); err == nil {
		t.Fatal("send with no deployment should fail")
	}
	s := e.Snapshot()
	if s.Sends != 1 || s.DropsByReason[trace.DropNotDeployed] != 1 {
		t.Errorf("got sends=%d dropsByReason=%v, want 1 send and 1 not-deployed drop",
			s.Sends, s.DropsByReason)
	}
	if s.Deliveries != 0 {
		t.Errorf("got %d deliveries, want 0", s.Deliveries)
	}
}

// TestResolveCacheInvalidation ensures the redirect cache never serves a
// resolution from before a membership change: after an undeploy, cached
// ingresses pointing at the withdrawn member must not reappear.
func TestResolveCacheInvalidation(t *testing.T) {
	n := world(t)
	// Option 1: global host routes reach whichever members remain, so the
	// withdrawn domain's capture has to disappear (under option 2 the
	// trajectory would legitimately dead-end if the default ISP left).
	e := newEvo(t, n, Config{Option: anycast.Option1})
	t0 := n.DomainByName("T0")
	t1 := n.DomainByName("T1")
	e.DeployDomain(t0.ASN, 0)
	e.DeployDomain(t1.ASN, 0)
	if err := e.Ready(); err != nil {
		t.Fatal(err)
	}
	src := n.HostsIn(n.DomainByName("S0.0").ASN)[0]
	dst := n.HostsIn(n.DomainByName("S1.1").ASN)[0]

	d1, err := e.Send(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache, then withdraw the chosen ingress's whole domain.
	ingressAS := n.DomainOf(d1.Ingress.Member)
	var stay topology.ASN
	if ingressAS == t0.ASN {
		stay = t1.ASN
	} else {
		stay = t0.ASN
	}
	for _, r := range n.Domain(ingressAS).Routers {
		e.UndeployRouter(r)
	}
	d2, err := e.Send(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.DomainOf(d2.Ingress.Member); got != stay {
		t.Errorf("after withdrawing AS%d, ingress still in AS%d (stale cache?)", ingressAS, got)
	}
}
