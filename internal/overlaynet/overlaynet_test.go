package overlaynet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
)

const waitShort = 2 * time.Second

func u(last byte) addr.V4 { return addr.V4FromOctets(10, 0, 0, last) }

// encapVN builds a vn-encap wire packet, V4Header{Proto:
// ProtoVNEncap}(VNHeader(payload)), into a slice of its own: what a
// sender puts on the underlay.
func encapVN(outer packet.V4Header, inner packet.VNHeader, payload []byte) ([]byte, error) {
	outer.Proto = packet.ProtoVNEncap
	b := packet.NewSerializeBuffer()
	if err := packet.SerializeVN(b, payload, &outer, &inner); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// buildChain wires host A → routers R1,R2,R3 → host B:
//   - R1 serves the anycast address (ingress);
//   - bone routes for B's address: R1→R2→R3;
//   - R3 has no bone route for B and exits via the underlay option.
func buildChain(t *testing.T) (reg *Registry, hostA, hostB *Node, routers []*Node, anycastAddr addr.V4) {
	t.Helper()
	reg = NewRegistry()
	mk := func(last byte) *Node {
		n, err := NewNode(reg, u(last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	hostA = mk(1)
	hostB = mk(2)
	r1, r2, r3 := mk(11), mk(12), mk(13)
	routers = []*Node{r1, r2, r3}

	anycastAddr, err := addr.Option1Address(0)
	if err != nil {
		t.Fatal(err)
	}
	r1.ServeAnycast(anycastAddr)
	hostA.SetAnycastRoute(anycastAddr, r1.Underlay)
	hostB.SetAnycastRoute(anycastAddr, r1.Underlay)

	hostA.SetVNAddr(addr.SelfAddress(hostA.Underlay))
	hostB.SetVNAddr(addr.SelfAddress(hostB.Underlay))

	// Bone routes: everything self-addressed rides R1→R2→R3.
	selfAll := addr.MakeVNPrefix(addr.SelfAddress(0), 1)
	r1.SetVNRoutes(map[addr.VNPrefix]addr.V4{selfAll: r2.Underlay})
	r2.SetVNRoutes(map[addr.VNPrefix]addr.V4{selfAll: r3.Underlay})
	// R3 deliberately has no route: it exits via OptUnderlayDst.
	return reg, hostA, hostB, routers, anycastAddr
}

func TestEndToEndThroughBone(t *testing.T) {
	_, hostA, hostB, routers, any := buildChain(t)
	payload := []byte("live universal access")
	if err := hostA.SendVN(any, hostB.VNAddr(), payload); err != nil {
		t.Fatal(err)
	}
	got, err := hostB.WaitInbox(waitShort)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.From != hostA.VNAddr() || got.To != hostB.VNAddr() {
		t.Errorf("addresses: from %s to %s", got.From, got.To)
	}
	// The last tunnel hop into B is R3.
	if got.OuterSrc != routers[2].Underlay {
		t.Errorf("outer src = %s, want R3 %s", got.OuterSrc, routers[2].Underlay)
	}
	// Stats: R1,R2 forwarded; R3 exited; B delivered.
	if s := routers[0].Stats(); s.Forwarded != 1 {
		t.Errorf("R1 stats = %+v", s)
	}
	if s := routers[2].Stats(); s.Exited != 1 {
		t.Errorf("R3 stats = %+v", s)
	}
	if s := hostB.Stats(); s.Delivered != 1 {
		t.Errorf("B stats = %+v", s)
	}
}

func TestAnycastFailover(t *testing.T) {
	reg, hostA, hostB, routers, any := buildChain(t)
	// Add a second ingress preferred over R1, then kill it: resolution
	// must fall back to R1 and delivery still work.
	r0, err := NewNode(reg, u(10))
	if err != nil {
		t.Fatal(err)
	}
	r0.ServeAnycast(any)
	selfAll := addr.MakeVNPrefix(addr.SelfAddress(0), 1)
	r0.SetVNRoutes(map[addr.VNPrefix]addr.V4{selfAll: routers[1].Underlay})
	hostA.SetAnycastRoute(any, r0.Underlay, routers[0].Underlay)

	if err := hostA.SendVN(any, hostB.VNAddr(), []byte("via r0")); err != nil {
		t.Fatal(err)
	}
	if _, err := hostB.WaitInbox(waitShort); err != nil {
		t.Fatal(err)
	}
	if s := r0.Stats(); s.Forwarded != 1 {
		t.Errorf("preferred ingress not used: %+v", s)
	}

	// Ingress dies; the anycast address keeps working.
	r0.Close()
	if err := hostA.SendVN(any, hostB.VNAddr(), []byte("via r1")); err != nil {
		t.Fatal(err)
	}
	got, err := hostB.WaitInbox(waitShort)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "via r1" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestNativeDeliveryViaBoneRoute(t *testing.T) {
	reg, hostA, _, routers, any := buildChain(t)
	// A natively addressed node hanging off R3's domain.
	nativeDst, err := NewNode(reg, u(20))
	if err != nil {
		t.Fatal(err)
	}
	defer nativeDst.Close()
	v := addr.NativeVN(42, 0)
	nativeDst.SetVNAddr(v)
	// Bone routes for domain 42's prefix down the chain to the dst node.
	p := addr.DomainVNPrefix(42)
	routers[0].SetVNRoutes(map[addr.VNPrefix]addr.V4{p: routers[1].Underlay})
	routers[1].SetVNRoutes(map[addr.VNPrefix]addr.V4{p: routers[2].Underlay})
	routers[2].SetVNRoutes(map[addr.VNPrefix]addr.V4{p: nativeDst.Underlay})

	if err := hostA.SendVN(any, v, []byte("native")); err != nil {
		t.Fatal(err)
	}
	got, err := nativeDst.WaitInbox(waitShort)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "native" {
		t.Errorf("payload = %q", got.Payload)
	}
}

// TestSetVNRoutesSwapsWhole: a relay whose two-prefix table another
// goroutine re-installs in a loop forwards every packet crossing it. The
// packets are native, so one that found no route would be dropped rather
// than exit by a carried address: the table is swapped whole, never seen
// empty or half-filled.
func TestSetVNRoutesSwapsWhole(t *testing.T) {
	reg := NewRegistry()
	mk := func(last byte) *Node {
		n, err := NewNode(reg, u(last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	src, r, dst := mk(1), mk(11), mk(20)
	any, err := addr.Option1Address(0)
	if err != nil {
		t.Fatal(err)
	}
	r.ServeAnycast(any)
	src.SetAnycastRoute(any, r.Underlay)
	v := addr.NativeVN(42, 0)
	dst.SetVNAddr(v)
	table := map[addr.VNPrefix]addr.V4{
		addr.DomainVNPrefix(42): dst.Underlay,
		addr.DomainVNPrefix(43): dst.Underlay,
	}
	r.SetVNRoutes(table)

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				r.SetVNRoutes(table)
			}
		}
	}()
	defer func() {
		close(stop)
		<-stopped
	}()

	// In windows the inbox holds, so only the relay can lose a packet.
	const total, window = 2000, 100
	for sent := 0; sent < total; sent += window {
		for i := 0; i < window; i++ {
			if err := src.SendVN(any, v, []byte("swap")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < window; i++ {
			if _, err := dst.WaitInbox(waitShort); err != nil {
				t.Fatalf("packet %d lost: %v (relay %+v)", sent+i, err, r.Stats())
			}
		}
	}
	if s := r.Stats(); s.Dropped != 0 || s.Forwarded != total {
		t.Errorf("relay stats %+v, want %d forwarded and none dropped", s, total)
	}
}

// TestForeignPacketDropped: a router drops a packet whose outer
// destination is neither its own address nor an anycast address it
// serves, and one addressed to an IPvN multicast group, for which the
// live plane keeps no state. Each is exactly one drop and nothing else.
func TestForeignPacketDropped(t *testing.T) {
	reg, hostA, _, routers, _ := buildChain(t)
	ep, _ := reg.Endpoint(routers[0].Underlay)
	cases := []struct {
		name     string
		outerDst addr.V4
		innerDst addr.VN
	}{
		// Outer dst is R2, not an anycast address R1 serves.
		{"foreign", routers[1].Underlay, addr.VN{Hi: 1}},
		{"multicast", routers[0].Underlay, addr.MulticastVN(7)},
	}
	for i, c := range cases {
		inner := packet.VNHeader{Version: 8, Src: hostA.VNAddr(), Dst: c.innerDst}
		outer := packet.V4Header{Proto: packet.ProtoVNEncap, Src: hostA.Underlay, Dst: c.outerDst}
		buf := packet.NewSerializeBuffer()
		if err := packet.Serialize(buf, []byte("mis-sent"), &outer, &inner); err != nil {
			t.Fatal(err)
		}
		if _, err := hostA.conn.WriteToUDP(buf.Bytes(), ep); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(waitShort)
		for routers[0].Stats().Dropped < uint64(i+1) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if s := routers[0].Stats(); s != (Stats{Dropped: uint64(i + 1)}) {
			t.Errorf("%s packet: R1 stats = %+v, want %d drops and nothing else", c.name, s, i+1)
		}
	}
	if len(routers[0].inbox) != 0 {
		t.Errorf("R1's inbox holds %d packets, want none", len(routers[0].inbox))
	}
}

func TestHopLimitStopsLoops(t *testing.T) {
	reg, _, _, _, _ := buildChain(t)
	// Two routers with routes pointing at each other: a loop. The hop
	// limit must kill the packet instead of melting the CPU.
	a, err := NewNode(reg, u(31))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(reg, u(32))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	loopAny, _ := addr.Option1Address(7)
	a.ServeAnycast(loopAny)
	dst := addr.VN{Hi: 0x77} // no one owns it
	p := addr.MakeVNPrefix(dst, 16)
	a.SetVNRoutes(map[addr.VNPrefix]addr.V4{p: b.Underlay})
	b.SetVNRoutes(map[addr.VNPrefix]addr.V4{p: a.Underlay})

	src, err := NewNode(reg, u(33))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetAnycastRoute(loopAny, a.Underlay)
	src.SetVNAddr(addr.SelfAddress(src.Underlay))
	if err := src.SendVN(loopAny, dst, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitShort)
	for time.Now().Before(deadline) {
		if a.Stats().Dropped+b.Stats().Dropped >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("looping packet was never dropped")
}

func TestRegistryResolution(t *testing.T) {
	reg := NewRegistry()
	if _, ok := reg.Endpoint(u(1)); ok {
		t.Error("empty registry resolved")
	}
	n, err := NewNode(reg, u(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, ok := reg.Endpoint(u(1)); !ok {
		t.Error("registered node not resolvable")
	}
	// u(5) is not registered; the choice falls through to u(1).
	if m, ep, live := n.target(nextHops{u(5), u(1)}); !live || m != u(1) || ep == nil {
		t.Errorf("target = %s %v %v", m, ep, live)
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	reg := NewRegistry()
	n, err := NewNode(reg, u(1))
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	any, _ := addr.Option1Address(0)
	if err := n.SendVN(any, addr.VN{Hi: 1}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
	// Closing twice is safe.
	n.Close()
}

func TestSendToUnknownUnderlayFails(t *testing.T) {
	reg := NewRegistry()
	n, err := NewNode(reg, u(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	any, _ := addr.Option1Address(0) // no members registered
	if err := n.SendVN(any, addr.VN{Hi: 1}, nil); !errors.Is(err, ErrUnknownUnderlay) {
		t.Errorf("err = %v", err)
	}
}

func TestEchoPingPong(t *testing.T) {
	// Bone routes in buildChain only run A→B; for the pong to return,
	// B's reply re-enters via the anycast ingress, whose self-route chain
	// leads back out at R3 toward A's underlay address.
	_, hostA, hostB, _, any := buildChain(t)
	hostB.EnableEcho()
	if err := hostA.SendVN(any, hostB.VNAddr(), []byte("ping:rtt-1")); err != nil {
		t.Fatal(err)
	}
	got, err := hostA.WaitInbox(waitShort)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "pong:rtt-1" {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.From != hostB.VNAddr() {
		t.Errorf("pong from %s", got.From)
	}
	// Pings are consumed by the echo service, not delivered to B's inbox.
	select {
	case r := <-hostB.inbox:
		t.Errorf("ping leaked to inbox: %q", r.Payload)
	default:
	}
	// Non-ping payloads still reach the inbox with echo enabled.
	if err := hostA.SendVN(any, hostB.VNAddr(), []byte("plain")); err != nil {
		t.Fatal(err)
	}
	if got, err := hostB.WaitInbox(waitShort); err != nil || string(got.Payload) != "plain" {
		t.Errorf("plain delivery: %q %v", got.Payload, err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	_, hostA, hostB, _, any := buildChain(t)
	const msgs = 50
	errs := make(chan error, msgs)
	for i := 0; i < msgs; i++ {
		go func() {
			errs <- hostA.SendVN(any, hostB.VNAddr(), []byte("burst"))
		}()
	}
	for i := 0; i < msgs; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.Now().Add(waitShort)
	for got < msgs && time.Now().Before(deadline) {
		select {
		case <-hostB.inbox:
			got++
		case <-time.After(50 * time.Millisecond):
		}
	}
	// UDP on loopback is reliable in practice, but the inbox can overflow
	// under burst; accept minor loss while requiring substantial delivery.
	if got < msgs/2 {
		t.Errorf("delivered %d/%d", got, msgs)
	}
}

// TestCloseSendsAcceptedPackets: a packet SendVN accepted leaves by the
// time Close returns, however many are still queued for the handler, and
// a first hop reads them in send order.
func TestCloseSendsAcceptedPackets(t *testing.T) {
	reg := NewRegistry()
	h, err := NewNode(reg, u(40))
	if err != nil {
		t.Fatal(err)
	}
	h.SetVNAddr(addr.SelfAddress(h.Underlay))
	first := u(41)
	sink := wireSink(t, reg, first)

	const k = 3 * rxDepth
	read := make(chan []byte, k)
	go func() {
		defer close(read)
		buf := make([]byte, 64*1024)
		for got := 0; got < k; {
			if err := sink.SetReadDeadline(time.Now().Add(waitShort)); err != nil {
				return
			}
			sz, _, err := sink.ReadFromUDP(buf)
			if err != nil {
				return
			}
			for dg := buf[:sz]; len(dg) > 0; got++ {
				var pkt []byte
				pkt, dg = packet.NextInTrain(dg)
				_, _, payload, err := packet.DecapVNShared(pkt, nil)
				if err != nil {
					return
				}
				read <- append([]byte(nil), payload...)
			}
		}
	}()
	for i := 0; i < k; i++ {
		if err := h.SendVN(first, addr.SelfAddress(u(42)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	i := 0
	for payload := range read {
		if !bytes.Equal(payload, []byte{byte(i)}) {
			t.Fatalf("packet %d carries %v", i, payload)
		}
		i++
	}
	if i != k {
		t.Errorf("first hop read %d of %d packets sent before Close", i, k)
	}
}

// TestSendVNAllocatesNothing: a steady stream of SendVNs to a
// self-addressed destination, whose header carries the underlay option,
// allocates nothing: the header stays on the stack and the serialize
// buffer comes from the pool.
func TestSendVNAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	h, err := NewNode(reg, u(43))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.SetVNAddr(addr.SelfAddress(h.Underlay))
	first := u(44)
	wireSink(t, reg, first) // never read: the kernel drops what overflows
	dst := addr.SelfAddress(u(45))
	payload := make([]byte, 64)
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := h.SendVN(first, dst, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SendVN allocates %v times per call, want 0", allocs)
	}
}
