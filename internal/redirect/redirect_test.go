package redirect

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/forward"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/underlay"
)

type env struct {
	net *topology.Network
	igp *underlay.View
	svc *anycast.Service
	fwd *forward.Engine
	dep *anycast.Deployment
}

// world: transit-stub internet with one participating stub.
func world(t *testing.T) *env {
	t.Helper()
	n, err := topology.TransitStub(2, 3, 0.3, topology.GenConfig{
		Seed: 13, RoutersPerDomain: 3, HostsPerDomain: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	igp := underlay.NewView(n)
	bgpSys := bgp.NewSystem(n)
	svc := anycast.NewService(n, bgpSys, igp)
	dep, err := svc.DeployOption1(0)
	if err != nil {
		t.Fatal(err)
	}
	svc.AddMember(dep, n.DomainByName("S0.0").Routers[0])
	svc.AddMember(dep, n.DomainByName("S1.1").Routers[1])
	return &env{
		net: n, igp: igp, svc: svc,
		fwd: forward.NewEngine(n, bgpSys, igp),
		dep: dep,
	}
}

func TestAnycastAlwaysSucceeds(t *testing.T) {
	e := world(t)
	r := &AnycastRedirector{Svc: e.svc, Dep: e.dep}
	if r.Name() != "anycast" {
		t.Error("name wrong")
	}
	for _, h := range e.net.Hosts {
		res, err := r.Redirect(h)
		if err != nil {
			t.Fatalf("host %s: %v", h.Name, err)
		}
		if res.Member < 0 || res.Cost < 0 {
			t.Fatalf("host %s: invalid result %+v", h.Name, res)
		}
	}
}

func TestISPLookupFailsOutsideParticipants(t *testing.T) {
	e := world(t)
	r := &ISPLookupRedirector{Svc: e.svc, Dep: e.dep, Net: e.net, Igp: e.igp}
	if r.Name() != "isp-lookup" {
		t.Error("name wrong")
	}
	partASN := e.net.DomainByName("S0.0").ASN
	var inPart, outPart, failures int
	for _, h := range e.net.Hosts {
		_, err := r.Redirect(h)
		switch {
		case h.Domain == partASN || h.Domain == e.net.DomainByName("S1.1").ASN:
			inPart++
			if err != nil {
				t.Errorf("participant-domain host %s failed: %v", h.Name, err)
			}
		default:
			outPart++
			if !errors.Is(err, ErrNoAssistance) {
				t.Errorf("host %s err = %v, want ErrNoAssistance", h.Name, err)
			} else {
				failures++
			}
		}
	}
	if inPart == 0 || outPart == 0 || failures != outPart {
		t.Errorf("coverage check: in=%d out=%d fail=%d", inPart, outPart, failures)
	}
}

func TestBrokerFullCoverageMatchesMembership(t *testing.T) {
	e := world(t)
	b := NewBroker(e.net, e.fwd, e.dep, 1.0, 1)
	b.Refresh()
	if len(b.snapshot) != len(e.dep.Members()) {
		t.Errorf("directory = %d, members = %d", len(b.snapshot), len(e.dep.Members()))
	}
	for _, h := range e.net.Hosts {
		res, err := b.Redirect(h)
		if err != nil {
			t.Fatalf("host %s: %v", h.Name, err)
		}
		found := false
		for _, m := range e.dep.Members() {
			if m == res.Member {
				found = true
			}
		}
		if !found {
			t.Errorf("broker referred to non-member %d", res.Member)
		}
	}
}

func TestBrokerZeroCoverage(t *testing.T) {
	e := world(t)
	b := NewBroker(e.net, e.fwd, e.dep, 0, 1)
	b.Refresh()
	if len(b.snapshot) != 0 {
		t.Errorf("directory = %d", len(b.snapshot))
	}
	if _, err := b.Redirect(e.net.Hosts[0]); !errors.Is(err, ErrNoReferral) {
		t.Errorf("err = %v", err)
	}
}

func TestBrokerStaleReferral(t *testing.T) {
	e := world(t)
	b := NewBroker(e.net, e.fwd, e.dep, 1.0, 1)
	b.Refresh()
	// Find a host whose referral points at S0.0's member, then withdraw it.
	victim := e.dep.MembersIn(e.net.DomainByName("S0.0").ASN)[0]
	var host *topology.Host
	for _, h := range e.net.Hosts {
		res, err := b.Redirect(h)
		if err == nil && res.Member == victim {
			host = h
			break
		}
	}
	if host == nil {
		t.Skip("no host routes to the victim member in this topology")
	}
	e.svc.RemoveMember(e.dep, victim)
	if _, err := b.Redirect(host); !errors.Is(err, ErrStaleReferral) {
		t.Errorf("err = %v, want ErrStaleReferral", err)
	}
	// Meanwhile anycast adapted seamlessly.
	a := &AnycastRedirector{Svc: e.svc, Dep: e.dep}
	if _, err := a.Redirect(host); err != nil {
		t.Errorf("anycast failed after withdrawal: %v", err)
	}
	// And the broker recovers after refreshing its directory.
	b.Refresh()
	if _, err := b.Redirect(host); err != nil {
		t.Errorf("refreshed broker failed: %v", err)
	}
}

func TestBrokerMissesNewDeployment(t *testing.T) {
	e := world(t)
	b := NewBroker(e.net, e.fwd, e.dep, 1.0, 1)
	b.Refresh()
	before := len(b.snapshot)
	// A new ISP deploys after the snapshot: broker clients can't benefit
	// until the next refresh; anycast clients benefit immediately.
	newMember := e.net.DomainByName("T0").Routers[0]
	e.svc.AddMember(e.dep, newMember)
	if len(b.snapshot) != before {
		t.Error("directory changed without refresh")
	}
	a := &AnycastRedirector{Svc: e.svc, Dep: e.dep}
	// Some host in T0's own domain now resolves locally via anycast…
	h := e.net.HostsIn(e.net.DomainByName("T0").ASN)[0]
	res, err := a.Redirect(h)
	if err != nil || res.Member != newMember {
		t.Errorf("anycast res = %+v err %v", res, err)
	}
	// …while the broker still refers it far away.
	bres, err := b.Redirect(h)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Member == newMember {
		t.Error("broker knew about the new member without refresh")
	}
	if bres.Cost < res.Cost {
		t.Errorf("stale broker referral (%d) beat anycast (%d)", bres.Cost, res.Cost)
	}
}

func TestBrokerCoverageClamped(t *testing.T) {
	e := world(t)
	if NewBroker(e.net, e.fwd, e.dep, -1, 1).coverage != 0 {
		t.Error("negative coverage not clamped")
	}
	if NewBroker(e.net, e.fwd, e.dep, 2, 1).coverage != 1 {
		t.Error("overlarge coverage not clamped")
	}
	b := NewBroker(e.net, e.fwd, e.dep, 0.01, 7)
	b.Refresh()
	// Tiny but nonzero coverage still yields at least one cooperator.
	if len(b.snapshot) == 0 {
		t.Error("nonzero coverage yielded empty directory")
	}
}

func TestBrokerDeterministicAcrossRuns(t *testing.T) {
	// Same seed → same cooperating-ISP sample → identical directory and
	// referrals, run after run. Different seeds are free to differ.
	e := world(t)
	// Partial coverage so the rng actually decides something.
	snapshot := func(b *BrokerRedirector) []topology.RouterID {
		b.Refresh()
		out := make([]topology.RouterID, 0, len(b.snapshot))
		for _, h := range e.net.Hosts {
			res, err := b.Redirect(h)
			if err != nil {
				out = append(out, -1)
				continue
			}
			out = append(out, res.Member)
		}
		return out
	}
	a := snapshot(NewBroker(e.net, e.fwd, e.dep, 0.5, 99))
	b := snapshot(NewBroker(e.net, e.fwd, e.dep, 0.5, 99))
	if len(a) != len(b) {
		t.Fatalf("referral counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at host %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBrokerWithInjectedRand(t *testing.T) {
	e := world(t)
	b1 := NewBrokerWithRand(e.net, e.fwd, e.dep, 0.5, rand.New(rand.NewSource(99)))
	b2 := NewBroker(e.net, e.fwd, e.dep, 0.5, 99)
	b1.Refresh()
	b2.Refresh()
	if len(b1.snapshot) != len(b2.snapshot) {
		t.Errorf("injected rng built a different directory: %d vs %d",
			len(b1.snapshot), len(b2.snapshot))
	}
	if NewBrokerWithRand(e.net, e.fwd, e.dep, -1, rand.New(rand.NewSource(1))).coverage != 0 {
		t.Error("negative coverage not clamped")
	}
}
