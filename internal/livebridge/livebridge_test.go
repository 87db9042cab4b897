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
// node of o, acknowledging through the deployment's anycast address.
func enableReliable(o *Overlay, cfg overlaynet.ReliableConfig) {
	cfg.AckVia = o.evo.AnycastAddr()
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

func TestReprovisionAfterFailureChangesTrajectory(t *testing.T) {
	// Simulated failure → reconverged control plane → fresh data plane:
	// the live trajectory follows the new prediction.
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
	if net.DomainOf(sim1.Ingress.Member) != dP1.ASN {
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
	if net.DomainOf(sim2.Ingress.Member) != dP2.ASN {
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

	// Last-good delivery still works: the simulator's resolver fails (no
	// members), so resolution rides the Registry's static member list.
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
			t.Fatalf("flow never entered fallback: %d unacked signals, %d suspect transitions", d.HealthSignals, d.HealthSuspects)
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

// TestLiveSendsBesideMembershipChurn: the live resolver asks the
// Evolution's published epoch, so datagrams may flow while another
// goroutine deploys and undeploys a router — no read of the registry the
// mutator is editing (the race detector referees), and every delivery
// still carries its own payload.
func TestLiveSendsBesideMembershipChurn(t *testing.T) {
	net, evo := buildEvo(t, bgpvn.PathInformed)
	o, err := Provision(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	src := net.HostsIn(net.DomainByName("S0.0").ASN)[0]
	dst := net.HostsIn(net.DomainByName("S0.1").ASN)[0]
	// The overlay is not watching: the toggled router's node stays up, so
	// whichever epoch the resolver reads, its nominee can take the packet.
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
