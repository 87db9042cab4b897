package overlaynet

import (
	"testing"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitShort)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCloseRemovesFromAnycastMembers(t *testing.T) {
	reg := NewRegistry()
	a, err := NewNode(reg, u(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(reg, u(12))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	any, _ := addr.Option1Address(0)
	reg.SetAnycastMembers(any, []addr.V4{a.Underlay, b.Underlay})
	// b has reported a suspected; a has reported b suspected. Closing a
	// must clear both directions of its suspicion state.
	reg.suspect(b.Underlay, a.Underlay)
	reg.suspect(a.Underlay, b.Underlay)

	a.Close()
	members := reg.AnycastMembers(any)
	if len(members) != 1 || members[0] != b.Underlay {
		t.Errorf("members after close = %v, want [%s]", members, b.Underlay)
	}
	if reg.Suspected(a.Underlay) {
		t.Error("suspicion about the closed node lingers")
	}
	if reg.Suspected(b.Underlay) {
		t.Error("closed node's suspicion report about b lingers")
	}
	if m, ok := reg.ResolveAnycast(any); !ok || m != b.Underlay {
		t.Errorf("resolve after close = %s ok %v", m, ok)
	}
}

func TestResolveFromSkipsSuspectedNominee(t *testing.T) {
	// The per-source resolver nominates m1; m1 is registered but suspected
	// dead. Resolution must fall through to the proximity-ordered member
	// list instead of honouring the stale nomination.
	reg := NewRegistry()
	m1, err := NewNode(reg, u(11))
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	m2, err := NewNode(reg, u(12))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	any, _ := addr.Option1Address(0)
	reg.SetAnycastMembers(any, []addr.V4{m1.Underlay, m2.Underlay})
	reg.SetResolver(func(src, a addr.V4) (addr.V4, bool) { return m1.Underlay, true })

	member, ep, err := reg.resolveFrom(u(1), any)
	if err != nil || member != m1.Underlay || ep == nil {
		t.Fatalf("healthy nominee not honoured: %s %v %v", member, ep, err)
	}

	reg.suspect(u(99), m1.Underlay)
	before := reg.Counters().Snapshot().FailoversAnycast
	member, _, err = reg.resolveFrom(u(1), any)
	if err != nil {
		t.Fatal(err)
	}
	if member != m2.Underlay {
		t.Errorf("resolved %s, want fallthrough to %s", member, m2.Underlay)
	}
	if after := reg.Counters().Snapshot().FailoversAnycast; after <= before {
		t.Error("anycast failover not counted")
	}

	// With every member suspected, the nominee is still better than
	// nothing: resolution must not fail.
	reg.suspect(u(99), m2.Underlay)
	if member, _, err = reg.resolveFrom(u(1), any); err != nil {
		t.Fatalf("all-suspected resolution failed: %v", err)
	}
	if member != m1.Underlay && member != m2.Underlay {
		t.Errorf("all-suspected resolved to stranger %s", member)
	}
}

func TestLivenessSuspectsAndRecovers(t *testing.T) {
	reg := NewRegistry()
	a, err := NewNode(reg, u(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(reg, u(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ft := NewFaultTransport(FaultConfig{})
	reg.SetFaultTransport(ft)
	a.AddPeer(b.Underlay)
	a.EnableLiveness(LivenessConfig{Interval: 10 * time.Millisecond, SuspectAfter: 2})

	waitFor(t, "initial probes", func() bool {
		return reg.Counters().Snapshot().ProbesSent >= 2
	})
	if reg.Suspected(b.Underlay) {
		t.Fatal("healthy peer suspected")
	}

	ft.Partition(a.Underlay, b.Underlay)
	waitFor(t, "suspicion", func() bool { return reg.Suspected(b.Underlay) })
	ph := a.PeerHealth()
	if len(ph) != 1 || ph[0].Peer != b.Underlay || !ph[0].Suspected {
		t.Errorf("peer health = %+v", ph)
	}

	ft.Heal(a.Underlay, b.Underlay)
	waitFor(t, "recovery", func() bool { return !reg.Suspected(b.Underlay) })
	snap := reg.Counters().Snapshot()
	if snap.PeersSuspected < 1 || snap.PeersRecovered < 1 || snap.ProbesMissed < 2 {
		t.Errorf("counters = suspected %d recovered %d missed %d",
			snap.PeersSuspected, snap.PeersRecovered, snap.ProbesMissed)
	}
}

func TestRouteFailoverToAlternate(t *testing.T) {
	// Ingress routes the self prefix to m1 with m2 as alternate. m1 dies;
	// the relay must fail over to m2 without any control-plane help.
	reg := NewRegistry()
	mk := func(last byte) *Node {
		n, err := NewNode(reg, u(last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	hostA, hostB := mk(1), mk(2)
	ingress, m1, m2 := mk(11), mk(12), mk(13)
	any, _ := addr.Option1Address(0)
	ingress.ServeAnycast(any)
	reg.SetAnycastMembers(any, []addr.V4{ingress.Underlay})
	hostA.SetVNAddr(addr.SelfAddress(hostA.Underlay))
	hostB.SetVNAddr(addr.SelfAddress(hostB.Underlay))
	selfAll := addr.MakeVNPrefix(addr.SelfAddress(0), 1)
	ingress.AddVNRoute(selfAll, m1.Underlay, m2.Underlay)
	// m1 and m2 both exit via the underlay option (no further routes).

	if err := hostA.SendVN(any, hostB.VNAddr(), []byte("via-primary")); err != nil {
		t.Fatal(err)
	}
	if _, err := hostB.WaitInbox(waitShort); err != nil {
		t.Fatal(err)
	}
	if s := m1.Stats(); s.Exited != 1 {
		t.Errorf("primary not used: %+v", s)
	}

	m1.Close()
	before := reg.Counters().Snapshot().FailoversRoute
	if err := hostA.SendVN(any, hostB.VNAddr(), []byte("via-alt")); err != nil {
		t.Fatal(err)
	}
	got, err := hostB.WaitInbox(waitShort)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "via-alt" {
		t.Errorf("payload = %q", got.Payload)
	}
	if s := m2.Stats(); s.Exited != 1 {
		t.Errorf("alternate not used: %+v", s)
	}
	if after := reg.Counters().Snapshot().FailoversRoute; after <= before {
		t.Error("route failover not counted")
	}
}

// TestUndecodableProbeDropped: a probe or ack too short to carry its nonce
// is dropped and counted like any other undecodable datagram, and a short
// ack does not clear suspicion of its sender.
func TestUndecodableProbeDropped(t *testing.T) {
	reg := NewRegistry()
	n, err := NewNode(reg, u(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	peer := u(2)
	n.mu.Lock()
	n.peers[peer] = &peerState{suspected: true, misses: 3, outstanding: 7}
	n.mu.Unlock()

	for i, proto := range []packet.Protocol{packet.ProtoProbe, packet.ProtoProbeAck} {
		outer := packet.V4Header{Proto: proto, Src: peer, Dst: n.Underlay}
		b := packet.NewSerializeBuffer()
		if err := packet.Serialize(b, []byte{0, 0, 0, 7}, &outer); err != nil {
			t.Fatal(err)
		}
		n.handle(append([]byte(nil), b.Bytes()...))
		if got := n.Stats().Dropped; got != uint64(i+1) {
			t.Errorf("%s with a 4-byte nonce: dropped = %d, want %d", proto, got, i+1)
		}
	}
	if ph := n.PeerHealth(); len(ph) != 1 || !ph[0].Suspected {
		t.Errorf("short ack cleared suspicion: %+v", ph)
	}
}
