package core

import (
	"testing"
	"time"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/topology"
)

// transitStubNet generates the stock 15-domain transit–stub internet.
func transitStubNet(t *testing.T) *topology.Network {
	t.Helper()
	net, err := topology.TransitStub(3, 4, 0.4, topology.GenConfig{
		Seed:             42,
		RoutersPerDomain: 3,
		HostsPerDomain:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// deployFirstSeven puts an option-1 deployment over net's first 7
// domains, as one membership event.
func deployFirstSeven(t *testing.T, net *topology.Network) *Evolution {
	t.Helper()
	evo, err := New(net, Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	var routers []topology.RouterID
	for _, asn := range net.ASNs()[:7] {
		routers = append(routers, net.Domain(asn).Routers...)
	}
	evo.DeployRouters(routers)
	return evo
}

// transitStubEvo is deployFirstSeven over a fresh transitStubNet.
func transitStubEvo(t *testing.T) (*topology.Network, *Evolution) {
	t.Helper()
	net := transitStubNet(t)
	return net, deployFirstSeven(t, net)
}

// findIntraLink returns one intra-domain link of asn.
func findIntraLink(t *testing.T, net *topology.Network, asn topology.ASN) (topology.RouterID, topology.RouterID) {
	t.Helper()
	for _, r := range net.Domain(asn).Routers {
		for _, e := range net.Intra.Neighbors(int(r)) {
			if net.DomainOf(topology.RouterID(e.To)) == asn {
				return r, topology.RouterID(e.To)
			}
		}
	}
	t.Fatalf("AS%d has no intra link", asn)
	return 0, 0
}

// TestRebuildFailureCounting pins the satellite fix: a bone build that
// errors must tick RebuildsFailed, not BoneRebuilds — the old code
// counted the rebuild before attempting it.
func TestRebuildFailureCounting(t *testing.T) {
	net, evo, _ := failureWorld(t)
	dP1 := net.DomainByName("P1")
	dP2 := net.DomainByName("P2")

	base := evo.Snapshot()
	// Severing the only policy path between the participants makes the
	// bone unbuildable: the epoch rebuild runs and fails.
	link, ok := evo.FailInterLink(dP1.Routers[0], dP2.Routers[0])
	if !ok {
		t.Fatal("peering link not found")
	}
	d := evo.Snapshot().Sub(base)
	if d.RebuildsFailed != 1 {
		t.Errorf("RebuildsFailed = %d, want 1", d.RebuildsFailed)
	}
	if d.BoneRebuilds != 0 {
		t.Errorf("BoneRebuilds = %d, want 0 — a failed build is not a rebuild", d.BoneRebuilds)
	}
	if d.Epochs != 1 {
		t.Errorf("Epochs = %d, want 1 — the error epoch must still publish", d.Epochs)
	}
	if _, err := evo.Bone(); err == nil {
		t.Error("Bone() should report the partition")
	}

	// Repair: the rebuild succeeds again and counts as exactly one.
	base = evo.Snapshot()
	evo.RestoreInterLink(link)
	d = evo.Snapshot().Sub(base)
	if d.BoneRebuilds != 1 || d.RebuildsFailed != 0 {
		t.Errorf("after repair: BoneRebuilds = %d RebuildsFailed = %d, want 1/0", d.BoneRebuilds, d.RebuildsFailed)
	}
	if _, err := evo.Bone(); err != nil {
		t.Errorf("bone unusable after repair: %v", err)
	}
}

// TestUnregisterWithdrawsInPlace pins the other satellite fix:
// withdrawing an endhost registration must republish the epoch without
// rebuilding the bone (the old code set the global dirty flag, forcing a
// full reconvergence on the next query).
func TestUnregisterWithdrawsInPlace(t *testing.T) {
	net, evo, h := failureWorld(t)
	_ = net
	if err := evo.RegisterEndhost(h); err != nil {
		t.Fatal(err)
	}
	base := evo.Snapshot()
	evo.UnregisterEndhost(h)
	d := evo.Snapshot().Sub(base)
	if d.BoneRebuilds != 0 || d.RebuildsFailed != 0 {
		t.Errorf("unregister rebuilt the bone: rebuilds = %d failed = %d", d.BoneRebuilds, d.RebuildsFailed)
	}
	if d.Epochs != 1 {
		t.Errorf("Epochs = %d, want 1 — the withdrawal must publish", d.Epochs)
	}
	// Unregistering an unknown host publishes nothing at all.
	base = evo.Snapshot()
	evo.UnregisterEndhost(h)
	if d := evo.Snapshot().Sub(base); d.Epochs != 0 {
		t.Errorf("double unregister published %d epochs, want 0", d.Epochs)
	}
}

// TestScopedIntraReconvergenceRunsFewerDijkstras fails one intra-domain
// link on a running Evolution and checks the scoped reconvergence against
// the full cost of the same world: an Evolution built from scratch on the
// post-failure topology, whose every shortest-path tree is computed fresh.
// The scoped path must recompute at least 5× fewer trees than that, and
// the two must agree on every delivery.
func TestScopedIntraReconvergenceRunsFewerDijkstras(t *testing.T) {
	netS, scoped := transitStubEvo(t)
	if _, err := scoped.Bone(); err != nil {
		t.Fatal(err)
	}

	// A deployed stub domain's intra link; same seed, so the link exists
	// in the reference network too.
	asn := netS.ASNs()[6]
	a, b := findIntraLink(t, netS, asn)

	sBase := scoped.IGP.DijkstraRuns()
	cs := scoped.Snapshot()
	if !scoped.FailIntraLink(a, b) {
		t.Fatal("intra link not found (scoped)")
	}
	sDelta := scoped.IGP.DijkstraRuns() - sBase

	netF := transitStubNet(t)
	if !netF.FailIntraLink(a, b) {
		t.Fatal("intra link not found (from scratch)")
	}
	fresh := deployFirstSeven(t, netF)
	if _, err := fresh.Bone(); err != nil {
		t.Fatal(err)
	}
	fDelta := fresh.IGP.DijkstraRuns()

	if sDelta == 0 {
		t.Fatal("scoped reconvergence ran no dijkstras — nothing was recomputed")
	}
	if fDelta < 5*sDelta {
		t.Errorf("building from scratch ran %d dijkstras, scoped ran %d — want ≥5× savings", fDelta, sDelta)
	}

	ds := scoped.Snapshot().Sub(cs)
	if ds.InvalDomain != 1 || ds.InvalInter != 0 {
		t.Errorf("scoped invalidation counters = %d/%d (domain/inter), want 1/0",
			ds.InvalDomain, ds.InvalInter)
	}
	if ds.BoneDomainsReused == 0 {
		t.Error("scoped rebuild reused no domain meshes")
	}

	// The reconverged system must agree with the from-scratch one on
	// deliveries.
	for i := 0; i < len(netS.Hosts); i++ {
		src, dst := netS.Hosts[i], netS.Hosts[(i+1)%len(netS.Hosts)]
		dS, errS := scoped.Send(src, dst, []byte("x"))
		dF, errF := fresh.Send(netF.Hosts[src.ID], netF.Hosts[dst.ID], []byte("x"))
		if (errS != nil) != (errF != nil) {
			t.Fatalf("h%d→h%d: scoped err=%v, from scratch err=%v", src.ID, dst.ID, errS, errF)
		}
		if errS == nil && (dS.Ingress.Member != dF.Ingress.Member || dS.TotalCost != dF.TotalCost) {
			t.Fatalf("h%d→h%d: scoped r%d/%d, from scratch r%d/%d",
				src.ID, dst.ID, dS.Ingress.Member, dS.TotalCost, dF.Ingress.Member, dF.TotalCost)
		}
	}
}

// TestSendCompletesWhileMutatorLockHeld is the lock-free-hot-path
// guarantee stated directly: a Send must finish while another goroutine
// holds the mutator lock, because the send path only loads the published
// epoch pointer.
func TestSendCompletesWhileMutatorLockHeld(t *testing.T) {
	net, evo := transitStubEvo(t)
	src, dst := net.Hosts[0], net.Hosts[1]
	if _, err := evo.Send(src, dst, []byte("warm")); err != nil {
		t.Fatal(err)
	}

	evo.mu.Lock()
	defer evo.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := evo.Send(src, dst, []byte("locked"))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("send under held mutator lock failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on the mutator lock — hot path is not lock-free")
	}
}
