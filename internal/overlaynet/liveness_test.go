package overlaynet

import (
	"net"
	"slices"
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

	a.Close()
	// A route that names the closed node skips it.
	o, err := b.prepare(any, addr.SelfAddress(u(2)), nil, nil)
	if err != nil || o.member != b.Underlay {
		t.Fatalf("first hop after close = %s, %v; want %s", o.member, err, b.Underlay)
	}
	packet.PutSerializeBuffer(o.buf)
}

// TestPrepareSkipsDeadPrimary: a sender's anycast route is [m1, m2]. Its
// first hop is m1 while m1 is healthy, and m2 — counted as one anycast
// failover — while the sender suspects m1 or m1 is closed. With every
// member suspected, a member still takes the packet.
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
	h.setSuspected(m1.Underlay, true)
	check("m1 suspected", m2.Underlay, 1)

	// With every member suspected, a possibly-dead ingress beats none.
	h.setSuspected(m2.Underlay, true)
	o, err := h.prepare(any, dst, nil, nil)
	if err != nil {
		t.Fatalf("all suspected: %v", err)
	}
	packet.PutSerializeBuffer(o.buf)
	if o.member != m1.Underlay && o.member != m2.Underlay {
		t.Errorf("all suspected: first hop is stranger %s", o.member)
	}

	h.setSuspected(m1.Underlay, false)
	h.setSuspected(m2.Underlay, false)
	m1.Close()
	check("m1 closed", m2.Underlay, 1)
}

// TestOneAnycastRoute: a node holds one anycast route. Without one it
// answers no ping and counts it dropped. A second SetAnycastRoute, toward
// another address, replaces the first: the first route's members leave
// PeerHealth, and a send to the old address goes out as unicast. An echo
// reply and an ack leave through the route's preferred member, and
// through the next member once the node suspects the first, each counted
// as one anycast failover.
func TestOneAnycastRoute(t *testing.T) {
	reg := NewRegistry()
	e, err := NewNode(reg, u(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	me, peer := addr.SelfAddress(e.Underlay), addr.SelfAddress(u(2))
	e.SetVNAddr(me)
	e.EnableEcho()
	e.EnableReliable(ReliableConfig{})
	// inject hands e a packet from peer as its receive goroutine would.
	inject := func(payload []byte, opts ...packet.Option) {
		t.Helper()
		wire, err := encapVN(packet.V4Header{Src: u(2), Dst: e.Underlay}, packet.VNHeader{Version: 8, Src: peer, Dst: me, Options: opts}, payload)
		if err != nil {
			t.Fatal(err)
		}
		e.rx <- wire
	}

	inject([]byte("ping:0"))
	waitFor(t, "the unanswered ping's drop", func() bool { return e.Stats() == Stats{Dropped: 1} })

	oldAny, _ := addr.Option1Address(0)
	newAny, _ := addr.Option1Address(1)
	oldSink := wireSink(t, reg, oldAny)
	m1, m2, m3 := u(11), u(12), u(13)
	sinks := map[addr.V4]*net.UDPConn{m2: wireSink(t, reg, m2), m3: wireSink(t, reg, m3)}
	e.SetAnycastRoute(oldAny, m1)
	e.SetAnycastRoute(newAny, m2, m3)
	if ph, want := e.PeerHealth(), []PeerStatus{{Peer: m2}, {Peer: m3}}; !slices.Equal(ph, want) {
		t.Errorf("peer health after the second route = %+v, want %+v", ph, want)
	}
	if err := e.SendVN(oldAny, peer, []byte("unicast")); err != nil {
		t.Fatal(err)
	}
	if outer, _, _, err := packet.DecapVNShared(readWire(t, oldSink), nil); err != nil || outer.Dst != oldAny {
		t.Errorf("send to the old address: outer dst %s, %v; want %s", outer.Dst, err, oldAny)
	}

	// replies checks that a ping's pong and a seq-marked packet's ack
	// leave through member toward newAny, each counting failovers.
	seq := uint32(0)
	replies := func(member addr.V4, failovers uint64) {
		t.Helper()
		before := reg.Counters().Snapshot().FailoversAnycast
		read := func(what string, n uint64) (packet.VNHeader, []byte) {
			t.Helper()
			outer, inner, payload, err := packet.DecapVNShared(readWire(t, sinks[member]), nil)
			if err != nil || outer.Dst != newAny || inner.Dst != peer {
				t.Fatalf("%s via %s: outer dst %s, inner dst %s, %v", what, member, outer.Dst, inner.Dst, err)
			}
			if got := reg.Counters().Snapshot().FailoversAnycast - before; got != n*failovers {
				t.Errorf("%s via %s: %d anycast failovers counted, want %d", what, member, got, n*failovers)
			}
			return inner, payload
		}
		inject([]byte("ping:1"))
		if _, payload := read("pong", 1); string(payload) != "pong:1" {
			t.Errorf("pong via %s carries %q", member, payload)
		}
		seq++
		inject([]byte("data"), seqOption(packet.OptDeliverySeq, seq))
		ack, _ := read("ack", 2)
		if got, ok := deliveryOpt(ack, packet.OptDeliveryAck); !ok || got != seq {
			t.Errorf("ack via %s acknowledges %d (%v), want %d", member, got, ok, seq)
		}
		if _, err := e.WaitInbox(waitShort); err != nil {
			t.Fatal(err)
		}
	}
	replies(m2, 0)
	e.setSuspected(m2, true)
	replies(m3, 1)
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
	any, _ := addr.Option1Address(0)
	a.SetAnycastRoute(any, b.Underlay)
	a.enableLivenessEvery(10 * time.Millisecond)
	suspected := func() bool {
		ph := a.PeerHealth()
		return len(ph) == 1 && ph[0].Peer == b.Underlay && ph[0].Suspected
	}

	waitFor(t, "initial probes", func() bool {
		return reg.Counters().Snapshot().ProbesSent >= 2
	})
	if suspected() {
		t.Fatal("healthy peer suspected")
	}

	ft.Partition(a.Underlay, b.Underlay)
	waitFor(t, "suspicion", suspected)
	if ph := a.PeerHealth(); len(ph) != 1 || ph[0].Peer != b.Underlay || !ph[0].Suspected {
		t.Errorf("peer health = %+v", ph)
	}

	ft.Heal(a.Underlay, b.Underlay)
	waitFor(t, "recovery", func() bool { return !suspected() })
	snap := reg.Counters().Snapshot()
	if snap.PeersSuspected < 1 || snap.PeersRecovered < 1 || snap.ProbesMissed < 2 {
		t.Errorf("counters = suspected %d recovered %d missed %d",
			snap.PeersSuspected, snap.PeersRecovered, snap.ProbesMissed)
	}
}

// TestRelayExitsPastDeadNextHops: a relay whose next hop is not live —
// closed, or suspected by the relay — lets a self-addressed packet leave
// the bone by the underlay address it carries, counted as an exit and a
// route failover, while a native destination routed past a closed next
// hop is still dropped.
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
	ingress, m1, m2 := mk(11), mk(12), mk(13)
	any, _ := addr.Option1Address(0)
	ingress.ServeAnycast(any)
	hostA.SetAnycastRoute(any, ingress.Underlay)
	for _, h := range []*Node{hostA, hostB, hostC} {
		h.SetVNAddr(addr.SelfAddress(h.Underlay))
	}
	native := addr.NativeVN(42, 0)
	ingress.SetVNRoutes(map[addr.VNPrefix]addr.V4{
		addr.HostVNPrefix(hostB.VNAddr()): m1.Underlay,
		addr.HostVNPrefix(hostC.VNAddr()): m2.Underlay,
		addr.DomainVNPrefix(42):           m1.Underlay,
	})
	m1.Close()
	ingress.setSuspected(m2.Underlay, true)

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
	any, _ := addr.Option1Address(0)
	n.SetAnycastRoute(any, peer)
	n.setSuspected(peer, true)

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

// TestSuspicionSteersOnlyItsHolder: hosts A and B share the anycast route
// [M, M2], and each probes it. A is cut off from M and comes to suspect
// it by its own probes; A then leaves through M2, while B, which
// suspects nothing, still leaves through M as primary.
func TestSuspicionSteersOnlyItsHolder(t *testing.T) {
	reg := NewRegistry()
	mk := func(last byte) *Node {
		n, err := NewNode(reg, u(last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	a, b, m, m2 := mk(1), mk(2), mk(11), mk(12)
	ft := NewFaultTransport(FaultConfig{})
	ft.Partition(a.Underlay, m.Underlay)
	reg.SetFaultTransport(ft)
	any, _ := addr.Option1Address(0)
	for _, h := range []*Node{a, b} {
		h.SetAnycastRoute(any, m.Underlay, m2.Underlay)
		h.enableLivenessEvery(5 * time.Millisecond)
	}
	waitFor(t, "A's suspicion of M", func() bool {
		ph := a.PeerHealth()
		return len(ph) == 2 && ph[0].Peer == m.Underlay && ph[0].Suspected
	})

	dst := addr.SelfAddress(u(3))
	for _, c := range []struct {
		h    *Node
		want addr.V4
	}{{a, m2.Underlay}, {b, m.Underlay}} {
		o, err := c.h.prepare(any, dst, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		packet.PutSerializeBuffer(o.buf)
		if o.member != c.want {
			t.Errorf("%s leaves through %s, want %s", c.h.Underlay, o.member, c.want)
		}
	}
	for _, ps := range b.PeerHealth() {
		if ps.Suspected {
			t.Errorf("B suspects %s, which answers it", ps.Peer)
		}
	}
}

// TestDroppedPeerIsNoLongerProbed: a route table that stops naming a peer
// drops it from the node's peer set — out of PeerHealth and no longer
// probed — while a peer still named keeps its health history.
func TestDroppedPeerIsNoLongerProbed(t *testing.T) {
	reg := NewRegistry()
	mk := func(last byte) *Node {
		n, err := NewNode(reg, u(last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	a, b, c := mk(1), mk(2), mk(3)
	// b never hears a's probes, so it gathers misses.
	ft := NewFaultTransport(FaultConfig{})
	ft.Partition(a.Underlay, b.Underlay)
	reg.SetFaultTransport(ft)
	toB, toC := addr.HostVNPrefix(addr.SelfAddress(u(20))), addr.HostVNPrefix(addr.SelfAddress(u(30)))
	a.SetVNRoutes(map[addr.VNPrefix]addr.V4{toB: b.Underlay, toC: c.Underlay})
	if got := len(a.PeerHealth()); got != 2 {
		t.Fatalf("%d peers, want 2", got)
	}
	a.probeRound()
	a.probeRound()

	a.SetVNRoutes(map[addr.VNPrefix]addr.V4{toB: b.Underlay})
	want := []PeerStatus{{Peer: b.Underlay, Misses: 1}}
	if ph := a.PeerHealth(); !slices.Equal(ph, want) {
		t.Fatalf("peer health after c's route went = %+v, want %+v", ph, want)
	}
	before := reg.Counters().Snapshot()
	a.probeRound()
	after := reg.Counters().Snapshot()
	if sent := after.ProbesSent - before.ProbesSent; sent != 1 {
		t.Errorf("%d probes sent after c's route went, want 1 (to b)", sent)
	}
	if missed := after.ProbesMissed - before.ProbesMissed; missed != 1 {
		t.Errorf("%d probes missed after c's route went, want 1 (b's)", missed)
	}
}

// TestDepartedPeerCountsNothing: a peer the node's routes still name but
// that has left the address book is not probed, and its silence is no
// miss: live.probes_sent and live.probes_missed stay flat, and the node
// never comes to suspect it.
func TestDepartedPeerCountsNothing(t *testing.T) {
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
	a.SetVNRoutes(map[addr.VNPrefix]addr.V4{addr.HostVNPrefix(addr.SelfAddress(u(20))): b.Underlay})
	a.probeRound()
	b.Close()

	before := reg.Counters().Snapshot()
	for i := 0; i < 2*suspectAfter; i++ {
		a.probeRound()
	}
	after := reg.Counters().Snapshot()
	if sent, missed := after.ProbesSent-before.ProbesSent, after.ProbesMissed-before.ProbesMissed; sent != 0 || missed != 0 {
		t.Errorf("departed peer: %d probes sent, %d missed, want 0 and 0", sent, missed)
	}
	if ph := a.PeerHealth(); len(ph) != 1 || ph[0].Suspected {
		t.Errorf("peer health = %+v, want the departed peer unsuspected", ph)
	}
}
