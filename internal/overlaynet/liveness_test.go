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
	b.SetAnycastRoute(any, a.Underlay, b.Underlay)
	// b has reported a suspected; a has reported b suspected. Closing a
	// must clear both directions of its suspicion state.
	reg.suspect(b.Underlay, a.Underlay)
	reg.suspect(a.Underlay, b.Underlay)

	a.Close()
	if reg.Suspected(a.Underlay) {
		t.Error("suspicion about the closed node lingers")
	}
	if reg.Suspected(b.Underlay) {
		t.Error("closed node's suspicion report about b lingers")
	}
	// A route that names the closed node skips it.
	o, err := b.prepare(any, addr.SelfAddress(u(2)), nil, nil)
	if err != nil || o.member != b.Underlay {
		t.Fatalf("first hop after close = %s, %v; want %s", o.member, err, b.Underlay)
	}
	packet.PutSerializeBuffer(o.buf)
}

// TestPrepareSkipsDeadPrimary: a sender's anycast route is [m1, m2]. Its
// first hop is m1 while m1 is healthy, and m2 — counted as one anycast
// failover — while m1 is suspected or closed. With every member
// suspected, a member still takes the packet.
func TestPrepareSkipsDeadPrimary(t *testing.T) {
	reg := NewRegistry()
	mk := func(last byte) *Node {
		n, err := NewNode(reg, u(last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	h, m1, m2 := mk(1), mk(11), mk(12)
	any, _ := addr.Option1Address(0)
	h.SetAnycastRoute(any, m1.Underlay, m2.Underlay)
	dst := addr.SelfAddress(u(2))
	check := func(what string, want addr.V4, failovers uint64) {
		t.Helper()
		before := reg.Counters().Snapshot().FailoversAnycast
		o, err := h.prepare(any, dst, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		packet.PutSerializeBuffer(o.buf)
		if o.member != want {
			t.Errorf("%s: first hop %s, want %s", what, o.member, want)
		}
		if got := reg.Counters().Snapshot().FailoversAnycast - before; got != failovers {
			t.Errorf("%s: %d anycast failovers counted, want %d", what, got, failovers)
		}
	}

	check("healthy", m1.Underlay, 0)
	reg.suspect(u(99), m1.Underlay)
	check("m1 suspected", m2.Underlay, 1)

	// With every member suspected, a possibly-dead ingress beats none.
	reg.suspect(u(99), m2.Underlay)
	o, err := h.prepare(any, dst, nil, nil)
	if err != nil {
		t.Fatalf("all suspected: %v", err)
	}
	packet.PutSerializeBuffer(o.buf)
	if o.member != m1.Underlay && o.member != m2.Underlay {
		t.Errorf("all suspected: first hop is stranger %s", o.member)
	}

	reg.unsuspect(u(99), m1.Underlay)
	reg.unsuspect(u(99), m2.Underlay)
	m1.Close()
	check("m1 closed", m2.Underlay, 1)
}

// TestSetAnycastRouteBesideSends: a node's anycast route may change while
// it sends (a bridged overlay reconciles beside its senders); every send
// leaves through a member of one of the routes. Run under -race.
func TestSetAnycastRouteBesideSends(t *testing.T) {
	reg := NewRegistry()
	mk := func(last byte) *Node {
		n, err := NewNode(reg, u(last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	h, m1, m2 := mk(1), mk(11), mk(12)
	any, _ := addr.Option1Address(0)
	h.SetAnycastRoute(any, m1.Underlay, m2.Underlay)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if i%2 == 0 {
				h.SetAnycastRoute(any, m2.Underlay, m1.Underlay)
			} else {
				h.SetAnycastRoute(any, m1.Underlay, m2.Underlay)
			}
		}
	}()
	for sending := true; sending; {
		select {
		case <-done:
			sending = false
		default:
		}
		o, err := h.prepare(any, addr.SelfAddress(u(2)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		packet.PutSerializeBuffer(o.buf)
		if o.member != m1.Underlay && o.member != m2.Underlay {
			t.Fatalf("first hop is stranger %s", o.member)
		}
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
	hostA.SetAnycastRoute(any, ingress.Underlay)
	hostA.SetVNAddr(addr.SelfAddress(hostA.Underlay))
	hostB.SetVNAddr(addr.SelfAddress(hostB.Underlay))
	selfAll := addr.MakeVNPrefix(addr.SelfAddress(0), 1)
	ingress.SetVNRoutes(map[addr.VNPrefix][]addr.V4{selfAll: {m1.Underlay, m2.Underlay}})
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

// TestRelayExitsPastDeadNextHops: a relay whose route has no live next
// hop — its only one closed, or every one suspected — lets a
// self-addressed packet leave the bone by the underlay address it
// carries, counted as an exit and a route failover, while a native
// destination routed past a closed next hop is still dropped.
func TestRelayExitsPastDeadNextHops(t *testing.T) {
	reg := NewRegistry()
	mk := func(last byte) *Node {
		n, err := NewNode(reg, u(last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	hostA, hostB, hostC := mk(1), mk(2), mk(3)
	ingress, m1, m2, m3 := mk(11), mk(12), mk(13), mk(14)
	any, _ := addr.Option1Address(0)
	ingress.ServeAnycast(any)
	hostA.SetAnycastRoute(any, ingress.Underlay)
	for _, h := range []*Node{hostA, hostB, hostC} {
		h.SetVNAddr(addr.SelfAddress(h.Underlay))
	}
	native := addr.NativeVN(42, 0)
	ingress.SetVNRoutes(map[addr.VNPrefix][]addr.V4{
		addr.HostVNPrefix(hostB.VNAddr()): {m1.Underlay},
		addr.HostVNPrefix(hostC.VNAddr()): {m2.Underlay, m3.Underlay},
		addr.DomainVNPrefix(42):           {m1.Underlay},
	})
	m1.Close()
	reg.suspect(hostA.Underlay, m2.Underlay)
	reg.suspect(hostA.Underlay, m3.Underlay)

	for i, dst := range []*Node{hostB, hostC} {
		was, failovers := ingress.Stats(), reg.Counters().Snapshot().FailoversRoute
		if err := hostA.SendVN(any, dst.VNAddr(), []byte("exit")); err != nil {
			t.Fatal(err)
		}
		got, err := dst.WaitInbox(waitShort)
		if err != nil {
			t.Fatalf("destination %d: %v", i, err)
		}
		if got.OuterSrc != ingress.Underlay {
			t.Errorf("destination %d: outer src %s, want the ingress %s", i, got.OuterSrc, ingress.Underlay)
		}
		s := ingress.Stats()
		if s.Exited != was.Exited+1 || s.Forwarded != was.Forwarded {
			t.Errorf("destination %d: ingress %+v after %+v, want one exit", i, s, was)
		}
		if f := reg.Counters().Snapshot().FailoversRoute; f != failovers+1 {
			t.Errorf("destination %d: %d route failovers counted, want 1", i, f-failovers)
		}
	}
	if s := m2.Stats(); s != (Stats{}) {
		t.Errorf("suspected m2 relayed: %+v", s)
	}

	was := ingress.Stats()
	if err := hostA.SendVN(any, native, []byte("native")); err != nil {
		t.Fatal(err)
	}
	// A drop taken back from a tally moves the drop first, so wait for
	// the pair to settle.
	want := was
	want.Dropped++
	deadline := time.Now().Add(waitShort)
	for ingress.Stats() != want {
		if time.Now().After(deadline) {
			t.Fatalf("native packet past a closed next hop: ingress %+v, want %+v", ingress.Stats(), want)
		}
		time.Sleep(time.Millisecond)
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
