package livebridge

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/overlaynet"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
)

const timeout = 3 * time.Second

// enableReliable turns on the acked/retransmitting mode on every host
// node of o; each acknowledges through its anycast route.
func enableReliable(o *Overlay, cfg overlaynet.ReliableConfig) {
	for _, n := range o.Hosts {
		n.EnableReliable(cfg)
	}
}

// sendReliable is Overlay.Send in the acked mode: it returns once dst
// has acknowledged the delivery and the payload has left its inbox.
func sendReliable(o *Overlay, src, dst *topology.Host, payload []byte, timeout time.Duration) (overlaynet.Received, error) {
	dstNode := o.Hosts[dst.ID]
	if err := o.Hosts[src.ID].SendVNReliable(o.evo.AnycastAddr(), dstNode.VNAddr(), payload); err != nil {
		return overlaynet.Received{}, err
	}
	return dstNode.WaitInbox(timeout)
}

func buildEvo(t *testing.T, egress bgpvn.EgressPolicy) (*topology.Network, *core.Evolution) {
	t.Helper()
	net, err := topology.TransitStub(2, 2, 0.3, topology.GenConfig{
		Seed: 5, RoutersPerDomain: 2, HostsPerDomain: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := core.New(net, core.Config{
		Option:    anycast.Option2,
		DefaultAS: net.DomainByName("T0").ASN,
		Egress:    egress,
	})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployDomain(net.DomainByName("T0").ASN, 0)
	evo.DeployDomain(net.DomainByName("S1.0").ASN, 0)
	return net, evo
}

func TestProvisionedOverlayDeliversEverywhere(t *testing.T) {
	net, evo := buildEvo(t, bgpvn.PathInformed)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	if len(o.Members) != len(evo.Dep.Members()) {
		t.Errorf("members provisioned %d, want %d", len(o.Members), len(evo.Dep.Members()))
	}
	if len(o.Hosts) != len(net.Hosts) {
		t.Errorf("hosts provisioned %d, want %d", len(o.Hosts), len(net.Hosts))
	}

	payload := []byte("bridged")
	for _, src := range net.Hosts {
		for _, dst := range net.Hosts {
			if src.ID == dst.ID {
				continue
			}
			got, err := o.Send(src, dst, payload, timeout)
			if err != nil {
				t.Fatalf("%s → %s: %v", src.Name, dst.Name, err)
			}
			if !bytes.Equal(got.Payload, payload) {
				t.Fatalf("%s → %s payload %q", src.Name, dst.Name, got.Payload)
			}
		}
	}
}

func TestLiveTrajectoryMatchesSimulation(t *testing.T) {
	net, evo := buildEvo(t, bgpvn.PathInformed)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	src := net.HostsIn(net.DomainByName("S0.0").ASN)[0]
	dst := net.HostsIn(net.DomainByName("S0.1").ASN)[0]
	// The simulator's prediction of the last vN hop.
	sim, err := evo.Send(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantLastHop := net.Router(sim.Egress.Member).Loopback

	got, err := o.Send(src, dst, []byte("check"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	if got.OuterSrc != wantLastHop {
		t.Errorf("live last hop %s, simulated egress %s", got.OuterSrc, wantLastHop)
	}
	// Live ingress counter: the simulated ingress member must have
	// touched the packet.
	ingNode := o.Members[sim.Ingress.Member]
	s := ingNode.Stats()
	if s.Forwarded+s.Exited == 0 {
		t.Errorf("simulated ingress node never forwarded: %+v", s)
	}
}

// TestLiveHonoursRegisteredRoute: a registered /128 outranks the egress
// policy on the live plane as it does in the simulator (§3.3.2). Under
// exit-early the policy would leave the bone at the ingress; the
// registration carries the packet on to the member nearest the host's
// advertising domain, and the live datagram must arrive from there.
func TestLiveHonoursRegisteredRoute(t *testing.T) {
	net, evo := buildEvo(t, bgpvn.ExitEarly)
	dst := net.HostsIn(net.DomainByName("S1.1").ASN)[0]
	if err := evo.RegisterEndhost(dst); err != nil {
		t.Fatal(err)
	}
	// A sender whose ingress is not the registration's egress, so the two
	// rules disagree about where the packet leaves the bone.
	var src *topology.Host
	var sim core.Delivery
	for _, h := range net.Hosts {
		if h.ID == dst.ID {
			continue
		}
		d, err := evo.Send(h, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.Egress.Member != d.Ingress.Member {
			src, sim = h, d
			break
		}
	}
	if src == nil {
		t.Fatal("precondition: every sender's ingress is already the registered egress")
	}

	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	got, err := o.Send(src, dst, []byte("registered"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	if want := net.Router(sim.Egress.Member).Loopback; got.OuterSrc != want {
		t.Errorf("live last hop %s, simulated egress %s (ingress %s)",
			got.OuterSrc, want, net.Router(sim.Ingress.Member).Loopback)
	}
}

func TestNativeDeliveryOverBridge(t *testing.T) {
	net, evo := buildEvo(t, bgpvn.PathInformed)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	// Both endpoints in participant domains: native IPvN addresses.
	src := net.HostsIn(net.DomainByName("T0").ASN)[0]
	dst := net.HostsIn(net.DomainByName("S1.0").ASN)[0]
	vs, _ := evo.HostVNAddr(src)
	vd, _ := evo.HostVNAddr(dst)
	if vs.IsSelf() || vd.IsSelf() {
		t.Fatal("expected native addresses")
	}
	got, err := o.Send(src, dst, []byte("native live"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "native live" {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.From != vs || got.To != vd {
		t.Errorf("addresses: %s → %s", got.From, got.To)
	}
}

func TestSendUnknownHost(t *testing.T) {
	net, evo := buildEvo(t, bgpvn.ExitEarly)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	ghost := &topology.Host{ID: 9999, Name: "ghost"}
	if _, err := o.Send(ghost, net.Hosts[0], nil, timeout); err == nil {
		t.Error("unknown src accepted")
	}
	if _, err := o.Send(net.Hosts[0], ghost, nil, timeout); err == nil {
		t.Error("unknown dst accepted")
	}
}

// dualHomed builds customer C homed to providers P1 (the cheap uplink)
// and P2 (the backup), both deployed and both customers of T; src sits in
// C, dst in T.
func dualHomed(t *testing.T) (*topology.Network, *core.Evolution, topology.RouterID, topology.RouterID, topology.RouterID, *topology.Host, *topology.Host) {
	t.Helper()
	b := topology.NewBuilder()
	dP1 := b.AddDomain("P1")
	dP2 := b.AddDomain("P2")
	dT := b.AddDomain("T")
	dC := b.AddDomain("C")
	rP1 := b.AddRouter(dP1, "")
	rP2 := b.AddRouter(dP2, "")
	rT := b.AddRouter(dT, "")
	rC := b.AddRouter(dC, "")
	b.Provide(rT, rP1, 10)
	b.Provide(rT, rP2, 10)
	b.Provide(rP1, rC, 5)  // cheap uplink via P1
	b.Provide(rP2, rC, 30) // backup via P2
	src := b.AddHost(dC, rC, "src", 1)
	dst := b.AddHost(dT, rT, "dst", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	evo, err := core.New(net, core.Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployRouter(rP1)
	evo.DeployRouter(rP2)
	return net, evo, rP1, rP2, rC, src, dst
}

func TestReprovisionAfterFailureChangesTrajectory(t *testing.T) {
	// Simulated failure → reconverged control plane → fresh data plane:
	// the live trajectory follows the new prediction.
	net, evo, rP1, rP2, rC, src, dst := dualHomed(t)
	o1, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o1.Send(src, dst, []byte("pre"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	o1.Close()
	_ = got

	sim1, err := evo.Send(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.DomainOf(sim1.Ingress.Member) != net.DomainOf(rP1) {
		t.Fatalf("precondition: ingress in AS%d", net.DomainOf(sim1.Ingress.Member))
	}

	// The cheap uplink dies; re-provision against the reconverged state.
	if _, ok := evo.FailInterLink(rP1, rC); !ok {
		t.Fatal("link not found")
	}
	o2, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	sim2, err := evo.Send(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.DomainOf(sim2.Ingress.Member) != net.DomainOf(rP2) {
		t.Fatalf("post-failure ingress in AS%d, want P2", net.DomainOf(sim2.Ingress.Member))
	}
	got, err = o2.Send(src, dst, []byte("post"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "post" {
		t.Errorf("payload = %q", got.Payload)
	}
	// The live ingress node that touched the packet is P2's member now.
	if s := o2.Members[sim2.Ingress.Member].Stats(); s.Forwarded+s.Exited == 0 {
		t.Error("new ingress node idle — live path did not follow the control plane")
	}
}

// TestReconcileMovesIngress: a failure that moves a host's simulated
// ingress moves its live one on Reconcile, in place: the host node keeps
// its identity, P2's member carries the next packet and P1's carries none.
func TestReconcileMovesIngress(t *testing.T) {
	_, evo, rP1, rP2, rC, src, dst := dualHomed(t)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Send(src, dst, []byte("pre"), timeout); err != nil {
		t.Fatal(err)
	}
	host := o.Hosts[src.ID]

	if _, ok := evo.FailInterLink(rP1, rC); !ok {
		t.Fatal("link not found")
	}
	if err := o.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if o.Hosts[src.ID] != host {
		t.Error("Reconcile restarted the host node")
	}
	carried := func(id topology.RouterID) uint64 {
		s := o.Members[id].Stats()
		return s.Forwarded + s.Exited
	}
	p1, p2 := carried(rP1), carried(rP2)
	got, err := o.Send(src, dst, []byte("post"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "post" {
		t.Errorf("payload = %q", got.Payload)
	}
	if carried(rP2) == p2 {
		t.Error("P2's member did not carry the packet")
	}
	if carried(rP1) != p1 {
		t.Error("P1's member carried the packet")
	}
}

// TestNoopReconcileInstallsNothing: a Reconcile with no mutation since
// the last one finds every node as the epoch wants it and counts no
// delta.
func TestNoopReconcileInstallsNothing(t *testing.T) {
	net, err := topology.TransitStub(2, 2, 0.3, topology.GenConfig{
		Seed: 5, RoutersPerDomain: 2, HostsPerDomain: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := core.New(net, core.Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployDomain(net.DomainByName("T0").ASN, 0)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	before := o.Reg.Counters().Snapshot().ReconcileDeltas
	if err := o.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if d := o.Reg.Counters().Snapshot().ReconcileDeltas - before; d != 0 {
		t.Errorf("no-op reconcile counted %d deltas over %d hosts", d, len(net.Hosts))
	}
}

// TestEgressExitsByCarriedAddress: the egress toward a self-addressed
// host holds no route to it, so the packet leaves by the underlay address
// it carries (counted as an exit); toward a native host the egress
// forwards by its route.
func TestEgressExitsByCarriedAddress(t *testing.T) {
	net, evo := buildEvo(t, bgpvn.PathInformed)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	src := net.HostsIn(net.DomainByName("S0.0").ASN)[0]
	for _, c := range []struct {
		dst               *topology.Host
		forwarded, exited uint64
	}{
		{net.HostsIn(net.DomainByName("S0.1").ASN)[0], 0, 1},
		{net.HostsIn(net.DomainByName("S1.0").ASN)[0], 1, 0},
	} {
		v, err := evo.HostVNAddr(c.dst)
		if err != nil {
			t.Fatal(err)
		}
		if v.IsSelf() != (c.exited == 1) {
			t.Fatalf("precondition: %s self-addressed=%v", c.dst.Name, v.IsSelf())
		}
		sim, err := evo.Send(src, c.dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		egress := o.Members[sim.Egress.Member]
		was := egress.Stats()
		if _, err := o.Send(src, c.dst, []byte("exit"), timeout); err != nil {
			t.Fatal(err)
		}
		s := egress.Stats()
		if fwd, exit := s.Forwarded-was.Forwarded, s.Exited-was.Exited; fwd != c.forwarded || exit != c.exited {
			t.Errorf("egress toward %s (%s): forwarded %d exited %d, want %d and %d",
				c.dst.Name, v, fwd, exit, c.forwarded, c.exited)
		}
	}
}

func TestProvisionRequiresDeployment(t *testing.T) {
	net, err := topology.TransitStub(2, 2, 0, topology.GenConfig{Seed: 6, HostsPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := core.New(net, core.Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Provision(evo); err == nil {
		t.Error("provisioning an undeployed evolution succeeded")
	}
}

func TestReconcileAppliesUndeployInPlace(t *testing.T) {
	net, evo := buildEvo(t, bgpvn.PathInformed)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	// Warm the data plane so surviving nodes have counter history.
	src := net.HostsIn(net.DomainByName("S0.0").ASN)[0]
	dst := net.HostsIn(net.DomainByName("S1.0").ASN)[0]
	if _, err := o.Send(src, dst, []byte("warm"), timeout); err != nil {
		t.Fatal(err)
	}

	members := evo.Dep.Members()
	if len(members) < 2 {
		t.Fatalf("need >= 2 members, have %d", len(members))
	}
	victim := members[0]
	survivors := map[topology.RouterID]*overlaynet.Node{}
	preStats := map[topology.RouterID]overlaynet.Stats{}
	for id, n := range o.Members {
		if id != victim {
			survivors[id] = n
			preStats[id] = n.Stats()
		}
	}
	preHosts := map[topology.HostID]*overlaynet.Node{}
	for id, n := range o.Hosts {
		preHosts[id] = n
	}

	evo.UndeployRouter(victim)
	if err := o.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}

	if _, still := o.Members[victim]; still {
		t.Error("undeployed member still provisioned")
	}
	// Unaffected nodes survive by identity — same *Node, counters intact.
	for id, n := range survivors {
		now, ok := o.Members[id]
		if !ok {
			t.Errorf("member %d vanished on reconcile", id)
			continue
		}
		if now != n {
			t.Errorf("member %d was restarted (new node identity)", id)
		}
		s := now.Stats()
		was := preStats[id]
		if s.Forwarded < was.Forwarded || s.Exited < was.Exited || s.Delivered < was.Delivered {
			t.Errorf("member %d counters went backwards: %+v -> %+v", id, was, s)
		}
	}
	for id, n := range preHosts {
		if now, ok := o.Hosts[id]; !ok || now != n {
			t.Errorf("host %d was restarted by an unrelated undeploy", id)
		}
	}
	if snap := o.Reg.Counters().Snapshot(); snap.ReconcileDeltas == 0 {
		t.Error("reconcile deltas not counted")
	}

	// Delivery still works on the reconciled overlay.
	if got, err := o.Send(src, dst, []byte("post"), timeout); err != nil || string(got.Payload) != "post" {
		t.Errorf("post-reconcile send: %q %v", got.Payload, err)
	}
}

func TestReconcileFallsBackOnErrorEpoch(t *testing.T) {
	net, evo := buildEvo(t, bgpvn.PathInformed)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	preMembers := len(o.Members)

	// Undeploying everything publishes an ErrNotDeployed epoch; the
	// provisioned overlay must keep its last-good configuration.
	for _, m := range evo.Dep.Members() {
		evo.UndeployRouter(m)
	}
	if err := o.Reconcile(); err == nil {
		t.Fatal("reconcile against an error epoch reported success")
	}
	if len(o.Members) != preMembers {
		t.Errorf("members after fallback = %d, want last-good %d", len(o.Members), preMembers)
	}
	if snap := o.Reg.Counters().Snapshot(); snap.ReconcileFallbacks == 0 {
		t.Error("reconcile fallback not counted")
	}

	// Last-good delivery still works: the host keeps the anycast route
	// the last good epoch gave it.
	src := net.HostsIn(net.DomainByName("S0.0").ASN)[0]
	dst := net.HostsIn(net.DomainByName("S1.0").ASN)[0]
	if got, err := o.Send(src, dst, []byte("degraded"), timeout); err != nil || string(got.Payload) != "degraded" {
		t.Errorf("last-good send: %q %v", got.Payload, err)
	}
}

func TestUnackedFlowEntersFallback(t *testing.T) {
	// The live plane's delivery failures must drive the simulator's
	// per-flow health: when reliable sends toward a destination repeatedly
	// exhaust their retransmission budget, the observer wiring reports
	// each ErrNotAcked into Evolution.ReportUnackedVN and the flow ends up
	// in the fallback state.
	net, err := topology.TransitStub(2, 2, 0.3, topology.GenConfig{
		Seed: 5, RoutersPerDomain: 2, HostsPerDomain: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := core.New(net, core.Config{
		Option:    anycast.Option2,
		DefaultAS: net.DomainByName("T0").ASN,
		Egress:    bgpvn.PathInformed,
		Fallback:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployDomain(net.DomainByName("T0").ASN, 0)
	evo.DeployDomain(net.DomainByName("S1.0").ASN, 0)

	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	enableReliable(o, overlaynet.ReliableConfig{
		JitterSeed:     1,
		MaxAttempts:    1,
		RetransmitBase: time.Millisecond,
		RetransmitMax:  time.Millisecond,
	})

	src := net.HostsIn(net.DomainByName("S0.0").ASN)[0]
	dst := net.HostsIn(net.DomainByName("S1.0").ASN)[0]

	// Prime the flow-health record through the simulator's send path (the
	// live observer's reports match on the flow's recorded IPvN
	// destination).
	if d, err := evo.Send(src, dst, []byte("prime")); err != nil || d.Fallback {
		t.Fatalf("primed flow: %+v, %v, want a vN delivery", d, err)
	}
	before := evo.Snapshot()

	// Black-hole the wire: every reliable send now exhausts its budget.
	o.Reg.SetFaultTransport(overlaynet.NewFaultTransport(overlaynet.FaultConfig{
		Seed: 7, DropRate: 1,
	}))

	deadline := time.Now().Add(timeout)
	for {
		if _, err := sendReliable(o, src, dst, []byte("lost"), 10*time.Millisecond); err == nil {
			t.Fatal("send over a fully dropped wire succeeded")
		}
		d := evo.Snapshot().Sub(before)
		if d.HealthFallbacks > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flow never entered fallback: %d unacked signals", d.HealthSignals)
		}
	}

	// Degraded but not dark: the simulator's send path now rides the
	// IPv(N-1) baseline for this flow.
	d, err := evo.Send(src, dst, []byte("degraded"))
	if err != nil {
		t.Fatalf("fallback send: %v", err)
	}
	if !d.Fallback {
		t.Errorf("delivery in fallback state not marked Fallback: %+v", d)
	}
}

func TestReliableSendOverBridge(t *testing.T) {
	net, evo := buildEvo(t, bgpvn.PathInformed)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	enableReliable(o, overlaynet.ReliableConfig{JitterSeed: 1})

	src := net.HostsIn(net.DomainByName("S0.0").ASN)[0]
	dst := net.HostsIn(net.DomainByName("S1.0").ASN)[0]
	got, err := sendReliable(o, src, dst, []byte("acked"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "acked" {
		t.Errorf("payload = %q", got.Payload)
	}
}

// TestLiveSendsBesideMembershipChurn: a live send reads only the routes
// the last Reconcile installed — the host's anycast route and the
// members' bone routes — so datagrams may flow while another goroutine
// deploys and undeploys a router: no read of what the mutator is editing
// (the race detector referees), and every delivery still carries its own
// payload.
func TestLiveSendsBesideMembershipChurn(t *testing.T) {
	net, evo := buildEvo(t, bgpvn.PathInformed)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	src := net.HostsIn(net.DomainByName("S0.0").ASN)[0]
	dst := net.HostsIn(net.DomainByName("S0.1").ASN)[0]
	// Nothing reconciles meanwhile: the toggled router's node stays up,
	// and every route stays the one Provision installed.
	victim := net.DomainByName("S1.0").Routers[1]
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; i < 200; i++ {
			evo.UndeployRouter(victim)
			evo.DeployRouter(victim)
		}
	}()
	defer func() { <-churned }()
	delivered := 0
	for churning := true; churning; delivered++ {
		select {
		case <-churned:
			churning = false
		default:
		}
		payload := []byte(fmt.Sprintf("beside churn %d", delivered))
		got, err := o.Send(src, dst, payload, timeout)
		if err != nil {
			t.Fatalf("send %d: %v", delivered, err)
		}
		if !bytes.Equal(got.Payload, payload) {
			t.Fatalf("send %d delivered %q, want %q", delivered, got.Payload, payload)
		}
	}
}

// TestBridgedOverlaySurvivesMemberKill: on E11's line of domains, closing
// host A's ingress member moves A's sends to the next member, and B's
// acks, routed back through the dead member, leave the bone early by
// A's carried address at the relay before it, so every reliable send is
// acked without a Reconcile.
func TestBridgedOverlaySurvivesMemberKill(t *testing.T) {
	const transits, messages = 4, 10
	net, err := topology.LineOfDomains(transits)
	if err != nil {
		t.Fatal(err)
	}
	evo, err := core.New(net, core.Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= transits; i++ {
		evo.DeployRouters(net.DomainByName(fmt.Sprintf("T%d", i)).Routers)
	}
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	enableReliable(o, overlaynet.ReliableConfig{
		JitterSeed:     1,
		MaxAttempts:    4,
		RetransmitBase: 5 * time.Millisecond,
		RetransmitMax:  20 * time.Millisecond,
	})
	a, b := net.Hosts[0], net.Hosts[1]
	res, err := evo.ResolveAnycast(a.Attach, evo.AnycastAddr())
	if err != nil {
		t.Fatal(err)
	}
	o.Members[res.Member].Close()

	for i := 0; i < messages; i++ {
		payload := fmt.Sprintf("after kill %d", i)
		got, err := sendReliable(o, a, b, []byte(payload), timeout)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if string(got.Payload) != payload {
			t.Fatalf("message %d: payload = %q", i, got.Payload)
		}
	}
	if s := o.Reg.Counters().Snapshot(); s.FailoversRoute == 0 {
		t.Errorf("acks crossed no route failover: %+v", s)
	}
}
