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
	reg.SetAnycastMembers(anycastAddr, []addr.V4{r1.Underlay})

	hostA.SetVNAddr(addr.SelfAddress(hostA.Underlay))
	hostB.SetVNAddr(addr.SelfAddress(hostB.Underlay))

	// Bone routes: everything self-addressed rides R1→R2→R3.
	selfAll := addr.MakeVNPrefix(addr.SelfAddress(0), 1)
	r1.AddVNRoute(selfAll, r2.Underlay)
	r2.AddVNRoute(selfAll, r3.Underlay)
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
	r0.AddVNRoute(selfAll, routers[1].Underlay)
	reg.SetAnycastMembers(any, []addr.V4{r0.Underlay, routers[0].Underlay})

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
	routers[0].AddVNRoute(p, routers[1].Underlay)
	routers[1].AddVNRoute(p, routers[2].Underlay)
	routers[2].AddVNRoute(p, nativeDst.Underlay)

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
	if len(routers[0].Inbox) != 0 {
		t.Errorf("R1's inbox holds %d packets, want none", len(routers[0].Inbox))
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
	reg.SetAnycastMembers(loopAny, []addr.V4{a.Underlay})
	dst := addr.VN{Hi: 0x77} // no one owns it
	p := addr.MakeVNPrefix(dst, 16)
	a.AddVNRoute(p, b.Underlay)
	b.AddVNRoute(p, a.Underlay)

	src, err := NewNode(reg, u(33))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
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
	if _, ok := reg.ResolveAnycast(u(99)); ok {
		t.Error("empty anycast resolved")
	}
	n, err := NewNode(reg, u(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, ok := reg.Endpoint(u(1)); !ok {
		t.Error("registered node not resolvable")
	}
	any, _ := addr.Option1Address(1)
	reg.SetAnycastMembers(any, []addr.V4{u(5), u(1)})
	// u(5) is not registered; resolution falls through to u(1).
	m, ok := reg.ResolveAnycast(any)
	if !ok || m != u(1) {
		t.Errorf("resolve = %s ok %v", m, ok)
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
	hostB.EnableEcho(any)
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
	case r := <-hostB.Inbox:
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
		case <-hostB.Inbox:
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
