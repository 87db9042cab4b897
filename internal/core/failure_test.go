package core

import (
	"errors"
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/forward"
	"github.com/evolvable-net/evolve/internal/topology"
)

// failureWorld: two participant domains (P1, P2) reachable from client
// domain C via separate provider links, so failing one inter link leaves
// an alternative.
func failureWorld(t *testing.T) (*topology.Network, *Evolution, *topology.Host) {
	t.Helper()
	b := topology.NewBuilder()
	dP1 := b.AddDomain("P1")
	dP2 := b.AddDomain("P2")
	dC := b.AddDomain("C")
	rP1 := b.AddRouters(dP1, 2)
	rP2 := b.AddRouters(dP2, 2)
	rC := b.AddRouters(dC, 2)
	b.IntraLink(rP1[0], rP1[1], 2)
	b.IntraLink(rP2[0], rP2[1], 2)
	b.IntraLink(rC[0], rC[1], 2)
	b.Provide(rP1[1], rC[0], 10) // C buys transit from P1 (cheap side)
	b.Provide(rP2[1], rC[1], 30) // and from P2 (expensive side)
	b.Peer(rP1[0], rP2[0], 10)
	h := b.AddHost(dC, rC[0], "client", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployDomain(dP1.ASN, 0)
	evo.DeployDomain(dP2.ASN, 0)
	return net, evo, h
}

func TestInterLinkFailureRedirectsAnycast(t *testing.T) {
	net, evo, h := failureWorld(t)
	dP1 := net.DomainByName("P1")
	dP2 := net.DomainByName("P2")

	res, err := evo.Anycast.ResolveFromHost(h, evo.AnycastAddr())
	if err != nil {
		t.Fatal(err)
	}
	if net.DomainOf(res.Member) != dP1.ASN {
		t.Fatalf("precondition: ingress in %s", net.Domain(net.DomainOf(res.Member)).Name)
	}
	costBefore := res.Cost

	// Fail C's cheap uplink to P1; anycast must re-land in P2 without
	// the client doing anything.
	link, ok := evo.FailInterLink(dP1.Routers[1], net.DomainByName("C").Routers[0])
	if !ok {
		t.Fatal("link not found")
	}
	res, err = evo.Anycast.ResolveFromHost(h, evo.AnycastAddr())
	if err != nil {
		t.Fatal(err)
	}
	if net.DomainOf(res.Member) != dP2.ASN {
		t.Errorf("after failure ingress in %s, want P2", net.Domain(net.DomainOf(res.Member)).Name)
	}
	if res.Cost <= costBefore {
		t.Errorf("detour should cost more: %d → %d", costBefore, res.Cost)
	}

	// Repair: back to P1.
	evo.RestoreInterLink(link)
	res, err = evo.Anycast.ResolveFromHost(h, evo.AnycastAddr())
	if err != nil {
		t.Fatal(err)
	}
	if net.DomainOf(res.Member) != dP1.ASN || res.Cost != costBefore {
		t.Errorf("after repair: %s cost %d, want P1 cost %d",
			net.Domain(net.DomainOf(res.Member)).Name, res.Cost, costBefore)
	}
}

// TestRestoreOfUpLinkIsNoOp: restoring a link that is already up reports
// false and publishes a no-op — resealed, nothing rebuilt or invalidated —
// and leaves no second copy behind: one failure then takes the link down.
func TestRestoreOfUpLinkIsNoOp(t *testing.T) {
	net, evo, h := failureWorld(t)
	p1, c := net.DomainByName("P1"), net.DomainByName("C")
	link, ok := evo.FailInterLink(p1.Routers[1], c.Routers[0])
	if !ok || !evo.RestoreInterLink(link) {
		t.Fatal("fail then restore of C's uplink to P1 refused")
	}

	prev, seq, before := evo.epoch.Load(), evo.mutSeq.Load(), evo.Snapshot()
	if evo.RestoreInterLink(link) {
		t.Error("restoring the live inter link reported true")
	}
	if evo.RestoreIntraLink(c.Routers[0], c.Routers[1], 1) {
		t.Error("restoring the live intra link reported true")
	}
	d := evo.Snapshot().Sub(before)
	if d.Epochs != 2 || evo.mutSeq.Load() != seq+2 || d.BoneRebuilds != 0 || d.InvalDomain != 0 || d.InvalInter != 0 {
		t.Errorf("two restores of live links: %d epochs, mutSeq +%d, %d rebuilds, invalidate.domain %d, invalidate.inter %d; want 2, +2, 0, 0, 0",
			d.Epochs, evo.mutSeq.Load()-seq, d.BoneRebuilds, d.InvalDomain, d.InvalInter)
	}
	if ep := evo.epoch.Load(); ep.seq != evo.mutSeq.Load() || ep.bone != prev.bone || ep.vn != prev.vn || ep.resolve != prev.resolve || ep.flow != prev.flow {
		t.Error("a restore of a live link did more than reseal the epoch")
	}
	for _, e := range net.Intra.Neighbors(int(c.Routers[0])) {
		if e.To == int(c.Routers[1]) && e.Weight != 2 {
			t.Errorf("C's intra link has an edge at cost %d beside its own 2", e.Weight)
		}
	}

	if _, ok := evo.FailInterLink(p1.Routers[1], c.Routers[0]); !ok {
		t.Fatal("failing the restored link refused")
	}
	res, err := evo.ResolveAnycast(h.Attach, evo.AnycastAddr())
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Domain(net.DomainOf(res.Member)).Name; got != "P2" {
		t.Errorf("after restore, restore again, fail: ingress in %s, want P2", got)
	}
}

func TestIntraLinkFailureReroutesInsideDomain(t *testing.T) {
	// Triangle domain: failing one edge leaves the detour.
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	rA := b.AddRouters(dA, 3)
	rB := b.AddRouter(dB, "")
	b.IntraLink(rA[0], rA[1], 1)
	b.IntraLink(rA[1], rA[2], 1)
	b.IntraLink(rA[0], rA[2], 5)
	b.Provide(rA[0], rB, 10)
	h := b.AddHost(dA, rA[0], "h", 1)
	hB := b.AddHost(dB, rB, "hb", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployRouter(rA[2])

	res, err := evo.Anycast.ResolveFromHost(h, evo.AnycastAddr())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 1+2 { // access 1 + r0→r1→r2
		t.Fatalf("precondition cost = %d", res.Cost)
	}
	if !evo.FailIntraLink(rA[1], rA[2]) {
		t.Fatal("fail reported no link")
	}
	res, err = evo.Anycast.ResolveFromHost(h, evo.AnycastAddr())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 1+5 { // direct r0→r2 edge
		t.Errorf("post-failure cost = %d, want 6", res.Cost)
	}
	// Failing a non-existent link reports false.
	if evo.FailIntraLink(rA[0], rB) {
		t.Error("cross-domain 'intra' failure succeeded")
	}
	// End-to-end delivery still works after the failure.
	if _, err := evo.Send(h, hB, []byte("x")); err != nil {
		t.Errorf("send after failure: %v", err)
	}
	evo.RestoreIntraLink(rA[1], rA[2], 1)
	res, _ = evo.Anycast.ResolveFromHost(h, evo.AnycastAddr())
	if res.Cost != 3 {
		t.Errorf("post-repair cost = %d", res.Cost)
	}
}

func TestDomainPartitionIsReported(t *testing.T) {
	// Sever a domain's only internal link: paths through the far half
	// must fail loudly, not silently cost Inf.
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	rA := b.AddRouters(dA, 2)
	rB := b.AddRouter(dB, "")
	b.IntraLink(rA[0], rA[1], 1)
	b.Provide(rA[1], rB, 10) // border is rA[1]
	h := b.AddHost(dA, rA[0], "h", 1)
	hB := b.AddHost(dB, rB, "hb", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployDomain(dB.ASN, 0)

	if _, err := evo.Send(h, hB, nil); err != nil {
		t.Fatalf("precondition: %v", err)
	}
	evo.FailIntraLink(rA[0], rA[1])
	_, err = evo.Send(h, hB, nil)
	if err == nil {
		t.Fatal("delivery across severed domain succeeded")
	}
	if !errors.Is(err, forward.ErrUnreachable) && !errors.Is(err, anycast.ErrNoRoute) {
		t.Logf("got error %v (acceptable wrapped form)", err)
	}
}

func TestBoneRebuildsAfterFailure(t *testing.T) {
	// P1 and P2 peer directly AND share a transit provider T, so when
	// the peering fails a valley-free detour (P1→T→P2) remains and the
	// anycast bootstrap can re-stitch the bone.
	b := topology.NewBuilder()
	dT := b.AddDomain("T")
	dP1 := b.AddDomain("P1")
	dP2 := b.AddDomain("P2")
	rT := b.AddRouter(dT, "")
	rP1 := b.AddRouter(dP1, "")
	rP2 := b.AddRouter(dP2, "")
	b.Provide(rT, rP1, 10)
	b.Provide(rT, rP2, 10)
	b.Peer(rP1, rP2, 5)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployRouter(rP1)
	evo.DeployRouter(rP2)

	bone1, err := evo.Bone()
	if err != nil {
		t.Fatal(err)
	}
	var directCost int64
	for _, l := range bone1.Links() {
		directCost = l.Cost
	}
	if directCost != 5 {
		t.Fatalf("precondition: direct tunnel cost = %d", directCost)
	}

	if _, ok := evo.FailInterLink(rP1, rP2); !ok {
		t.Fatal("peering link not found")
	}
	bone2, err := evo.Bone()
	if err != nil {
		t.Fatal(err)
	}
	if !bone2.Connected() {
		t.Fatal("bone disconnected after inter-link failure")
	}
	// The replacement tunnel rides the transit detour: strictly costlier.
	var detourCost int64
	for _, l := range bone2.Links() {
		detourCost = l.Cost
	}
	if detourCost <= directCost {
		t.Errorf("detour tunnel cost = %d, want > %d", detourCost, directCost)
	}
}

func TestBonePartitionsWhenNoPolicyPathRemains(t *testing.T) {
	// The counterpart: P1 and P2's only connection besides the peering
	// is a shared *customer*, which must not provide transit — so after
	// the peering fails the participants are genuinely unreachable and
	// the bone build reports it.
	net, evo, _ := failureWorld(t)
	if _, err := evo.Bone(); err != nil {
		t.Fatal(err)
	}
	dP1 := net.DomainByName("P1")
	dP2 := net.DomainByName("P2")
	if _, ok := evo.FailInterLink(dP1.Routers[0], dP2.Routers[0]); !ok {
		t.Fatal("peering link not found")
	}
	if _, err := evo.Bone(); err == nil {
		t.Error("bone built despite policy-level partition (customer transit leak?)")
	}
}
