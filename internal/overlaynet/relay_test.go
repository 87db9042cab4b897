package overlaynet

import (
	"bytes"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/tunnel"
)

// wireSink registers a bare UDP socket under a, so that what a node writes
// toward a can be read back byte for byte.
func wireSink(t testing.TB, reg *Registry, a addr.V4) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	reg.Register(a, c.LocalAddr().(*net.UDPAddr))
	return c
}

func readWire(t *testing.T, c *net.UDPConn) []byte {
	t.Helper()
	buf := make([]byte, 64*1024)
	if err := c.SetReadDeadline(time.Now().Add(waitShort)); err != nil {
		t.Fatal(err)
	}
	n, _, err := c.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("nothing relayed: %v", err)
	}
	return buf[:n]
}

// randomEncap serializes a random valid vn-encap datagram addressed to
// outerDst for the IPvN destination dst.
func randomEncap(t *testing.T, rng *rand.Rand, outerDst addr.V4, dst addr.VN, hop uint8) []byte {
	t.Helper()
	inner := packet.VNHeader{
		Version:  8,
		HopLimit: hop,
		Src:      addr.SelfAddress(addr.V4(rng.Uint32())),
		Dst:      dst,
	}
	if rng.Intn(2) == 0 {
		inner = inner.WithUnderlayDst(addr.V4(rng.Uint32()))
	}
	if rng.Intn(2) == 0 {
		tag := make([]byte, 4)
		rng.Read(tag)
		inner.Options = append(inner.Options, packet.Option{Type: packet.OptTraceTag, Value: tag})
	}
	payload := make([]byte, rng.Intn(1400))
	rng.Read(payload)
	wire, err := encapVN(packet.V4Header{Src: addr.V4(rng.Uint32()), Dst: outerDst, TTL: uint8(rng.Intn(256))}, inner, payload)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestRelayMatchesPatchEncap holds the live plane's hop to the
// simulator's: for random valid vn-encap datagrams, what a node relays is
// byte for byte what tunnel.Endpoint.PatchEncap makes of the same input,
// and a datagram PatchEncap expires is dropped.
func TestRelayMatchesPatchEncap(t *testing.T) {
	reg := NewRegistry()
	r, err := NewNode(reg, u(50))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	next := u(51)
	sink := wireSink(t, reg, next)
	dst := addr.SelfAddress(u(99))
	r.SetVNRoutes(map[addr.VNPrefix]addr.V4{addr.HostVNPrefix(dst): next})

	rng := rand.New(rand.NewSource(1))
	ep := tunnel.NewEndpoint(r.Underlay)
	for i := 0; i < 200; i++ {
		// Hop limits 0 (the serializer's "default") to 4, so expiry (1)
		// comes up as often as relaying, plus the full range.
		hop := uint8(rng.Intn(5))
		if i%2 == 0 {
			hop = uint8(rng.Intn(256))
		}
		wire := randomEncap(t, rng, r.Underlay, dst, hop)
		want := append([]byte(nil), wire...)
		dropped := r.Stats().Dropped
		r.receive(wire)
		if err := ep.PatchEncap(want, next); err != nil {
			if got := r.Stats().Dropped; got != dropped+1 {
				t.Fatalf("datagram %d (hop limit %d): PatchEncap says %v, relay dropped %d", i, hop, err, got-dropped)
			}
			continue
		}
		if got := readWire(t, sink); !bytes.Equal(got, want) {
			t.Fatalf("datagram %d (hop limit %d): relayed bytes differ from PatchEncap\n got %x\nwant %x", i, hop, got, want)
		}
	}
	if s := r.Stats(); s.Forwarded+s.Dropped != 200 || s.Forwarded == 0 || s.Dropped == 0 {
		t.Errorf("stats = %+v, want 200 datagrams split between forwarded and dropped", s)
	}
}

// TestRelayAllocatesNothing: a relay taking a train of packets on to
// their /128 routes' next hops — the table a live member holds — allocates
// nothing per datagram: decoding, the route lookup, re-addressing,
// boarding and the trains' writes all reuse what the node holds.
func TestRelayAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	r, err := NewNode(reg, u(60))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const pkts = 4
	routes := map[addr.VNPrefix]addr.V4{}
	var train []byte
	for i := 0; i < pkts; i++ {
		dst := addr.NativeVN(42, uint64(i))
		routes[addr.HostVNPrefix(dst)] = u(byte(61 + i%2))
		wire, err := encapVN(packet.V4Header{Src: u(1), Dst: r.Underlay, TTL: 64},
			packet.VNHeader{Version: 8, HopLimit: 64, Src: addr.SelfAddress(u(1)), Dst: dst}, make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		train = append(train, wire...)
	}
	wireSink(t, reg, u(61)) // never read: the kernel drops what overflows
	wireSink(t, reg, u(62))
	r.SetVNRoutes(routes)
	dg := make([]byte, len(train))
	if allocs := testing.AllocsPerRun(1000, func() {
		copy(dg, train) // the relay rewrites the datagram in place
		r.receive(dg)
	}); allocs != 0 {
		t.Errorf("relaying a %d-packet train allocates %v times, want 0", pkts, allocs)
	}
	// AllocsPerRun makes one warm-up call before the measured ones.
	if s := r.Stats(); s.Forwarded != pkts*1001 || s.Dropped != 0 {
		t.Errorf("stats = %+v, want %d forwarded and none dropped", s, pkts*1001)
	}
}

// readTrains reads datagrams off c until none arrives for a short while.
func readTrains(t *testing.T, c *net.UDPConn) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		buf := make([]byte, 64*1024)
		if err := c.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		n, _, err := c.ReadFromUDP(buf)
		if err != nil {
			return out
		}
		out = append(out, buf[:n])
	}
}

// readPayloads reads datagrams off c as readTrains does and returns the
// payload of every packet they carry, in order.
func readPayloads(t *testing.T, c *net.UDPConn) [][]byte {
	t.Helper()
	var out [][]byte
	for _, dg := range readTrains(t, c) {
		for len(dg) > 0 {
			var pkt []byte
			pkt, dg = packet.NextInTrain(dg)
			_, _, payload, err := packet.DecapVNShared(pkt, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, payload)
		}
	}
	return out
}

// TestRelayCoalescesBacklog: packets handled back to back for one next hop
// leave as trains of at most trainCap bytes, as few as the bytes allow,
// whose packets are in order and byte for byte PatchEncap's outputs; a
// packet larger than a train leaves alone. A bad total length in the
// middle of a train delivers the packets before it and counts one drop.
func TestRelayCoalescesBacklog(t *testing.T) {
	reg := NewRegistry()
	r, err := NewNode(reg, u(52))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	next := u(53)
	sink := wireSink(t, reg, next)
	dst := addr.SelfAddress(u(98))
	r.SetVNRoutes(map[addr.VNPrefix]addr.V4{addr.HostVNPrefix(dst): next})

	// 184-byte packets, eight to a train; the backlog arrives as one
	// datagram, which the handler walks exactly as it would the same
	// packets queued one datagram each.
	const k, size = 20, 184
	ep := tunnel.NewEndpoint(r.Underlay)
	var in, want []byte
	for i := 0; i <= k; i++ {
		payload := make([]byte, size-packet.V4HeaderLen-packet.VNHeaderLen)
		if i == k {
			payload = make([]byte, trainCap) // the one that travels alone
		}
		payload[0] = byte(i)
		wire, err := encapVN(packet.V4Header{Src: u(1), Dst: r.Underlay}, packet.VNHeader{Version: 8, HopLimit: 9, Dst: dst}, payload)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, wire...)
		if err := ep.PatchEncap(wire, next); err != nil {
			t.Fatal(err)
		}
		want = append(want, wire...)
	}
	r.receive(in)

	got := readTrains(t, sink)
	if trains := (k*size + trainCap - 1) / trainCap; len(got) != trains+1 {
		t.Fatalf("%d packets left as %d datagrams, want %d trains and the large packet", k+1, len(got), trains)
	}
	for i, dg := range got[:len(got)-1] {
		if len(dg) > trainCap {
			t.Errorf("train %d is %d bytes, over %d", i, len(dg), trainCap)
		}
	}
	if !bytes.Equal(bytes.Join(got, nil), want) {
		t.Error("relayed trains differ from PatchEncap's packets in order")
	}
	if s := r.Stats(); s.Forwarded != k+1 || s.Dropped != 0 {
		t.Errorf("stats = %+v, want %d forwarded", s, k+1)
	}

	me := addr.SelfAddress(r.Underlay)
	r.SetVNAddr(me)
	in = nil
	for i := 0; i < 4; i++ {
		wire, err := encapVN(packet.V4Header{Src: u(1), Dst: r.Underlay}, packet.VNHeader{Version: 8, Dst: me}, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			wire[2], wire[3] = 0xff, 0xff
		}
		in = append(in, wire...)
	}
	r.receive(in)
	for i := 0; i < 2; i++ {
		if rcv, err := r.WaitInbox(waitShort); err != nil || !bytes.Equal(rcv.Payload, []byte{byte(i)}) {
			t.Fatalf("delivery %d: %v %v", i, rcv.Payload, err)
		}
	}
	if s := r.Stats(); s.Delivered != 2 || s.Dropped != 1 || len(r.inbox) != 0 {
		t.Errorf("stats = %+v with %d queued, want 2 delivered and 1 dropped", s, len(r.inbox))
	}
}

// TestOriginateCoalescesBacklog drives the handler's originate step with
// no timing involved: originated packets boarded back to back for one
// first hop leave as trains of at most trainCap bytes, as few as the bytes
// allow, whose packets are in order and byte for byte what
// packet.SerializeVN makes of the same headers; a packet larger than a
// train leaves alone.
func TestOriginateCoalescesBacklog(t *testing.T) {
	reg := NewRegistry()
	h, err := NewNode(reg, u(54))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	me := addr.SelfAddress(h.Underlay)
	h.SetVNAddr(me)
	first := u(55)
	sink := wireSink(t, reg, first)
	dst := addr.SelfAddress(u(97)) // self-addressed: the header carries the underlay option

	// 184-byte packets, eight to a train.
	const k, size = 20, 184
	outer := packet.V4Header{Proto: packet.ProtoVNEncap, Src: h.Underlay, Dst: first}
	inner := packet.VNHeader{Version: 8, Src: me, Dst: dst}.WithUnderlayDst(u(97))
	var want []byte
	for i := 0; i <= k; i++ {
		// The underlay option is six bytes: type, length and the address.
		payload := make([]byte, size-packet.V4HeaderLen-packet.VNHeaderLen-6)
		if i == k {
			payload = make([]byte, trainCap) // the one that travels alone
		}
		payload[0] = byte(i)
		ref := packet.NewSerializeBuffer()
		if err := packet.SerializeVN(ref, payload, &outer, &inner); err != nil {
			t.Fatal(err)
		}
		if i < k && ref.Len() != size {
			t.Fatalf("packet %d is %d bytes, want %d", i, ref.Len(), size)
		}
		want = append(want, ref.Bytes()...)
		o, err := h.prepare(first, dst, payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		h.originate(o)
	}
	h.flushIfIdle()

	got := readTrains(t, sink)
	if trains := (k*size + trainCap - 1) / trainCap; len(got) != trains+1 {
		t.Fatalf("%d packets left as %d datagrams, want %d trains and the large packet", k+1, len(got), trains)
	}
	for i, dg := range got[:len(got)-1] {
		if len(dg) > trainCap {
			t.Errorf("train %d is %d bytes, over %d", i, len(dg), trainCap)
		}
	}
	if !bytes.Equal(bytes.Join(got, nil), want) {
		t.Error("originated trains differ from SerializeVN's packets in order")
	}
}

// TestEchoBacklogBeyondQueue: the handler's own sends board their trains
// directly. A backlog of more pings than the originate queue holds, queued
// for the handler as the receive goroutine queues a datagram, gets every
// pong, in order; a handler that queued its replies would wait on its own
// full queue forever.
func TestEchoBacklogBeyondQueue(t *testing.T) {
	reg := NewRegistry()
	e, err := NewNode(reg, u(56))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	me := addr.SelfAddress(e.Underlay)
	e.SetVNAddr(me)
	via := u(57)
	sink := wireSink(t, reg, via)
	any, _ := addr.Option1Address(0)
	e.SetAnycastRoute(any, via)
	e.EnableEcho()

	const pings = 2 * rxDepth
	var in []byte
	for i := 0; i < pings; i++ {
		wire, err := encapVN(packet.V4Header{Src: u(1), Dst: e.Underlay}, packet.VNHeader{Version: 8, Src: addr.SelfAddress(u(96)), Dst: me}, append([]byte("ping:"), byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, wire...)
	}
	e.rx <- in

	pongs := readPayloads(t, sink)
	for i, payload := range pongs {
		if want := append([]byte("pong:"), byte(i)); !bytes.Equal(payload, want) {
			t.Fatalf("reply %d is %q, want %q", i, payload, want)
		}
	}
	if len(pongs) != pings {
		t.Fatalf("%d pings got %d pongs", pings, len(pongs))
	}
	if s := e.Stats(); s.Delivered != pings || s.Dropped != 0 {
		t.Errorf("stats = %+v, want %d delivered", s, pings)
	}
}

// nodeGoroutines counts the goroutines running a Node method.
func nodeGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("overlaynet.(*Node).")) {
			count++
		}
	}
	return count
}

// TestCloseLeavesNoGoroutines: a node runs a receive goroutine and a
// handler, plus a prober once liveness is on, and Close leaves none of
// them behind.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := nodeGoroutines()
	reg := NewRegistry()
	a, err := NewNode(reg, u(80))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(reg, u(81))
	if err != nil {
		t.Fatal(err)
	}
	a.enableLivenessEvery(time.Millisecond)
	bVN := addr.SelfAddress(b.Underlay)
	b.SetVNAddr(bVN)
	if err := a.SendVN(b.Underlay, bVN, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitInbox(waitShort); err != nil {
		t.Fatal(err)
	}
	if got := nodeGoroutines() - before; got != 5 {
		t.Errorf("two nodes, one probing, run %d goroutines, want 5", got)
	}
	a.Close()
	b.Close()
	// Close returns once each goroutine has run its last deferred call;
	// give the runtime a moment to retire them.
	deadline := time.Now().Add(waitShort)
	for nodeGoroutines() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if left := nodeGoroutines() - before; left != 0 {
		t.Errorf("%d node goroutines outlive Close", left)
	}
}

// TestWaitInboxReleasesTimer: a WaitInbox the inbox answers at once must
// not leave its timeout's timer behind. With time.After the runtime held
// one per call until the minute elapsed — over 2 MB after 10k calls.
func TestWaitInboxReleasesTimer(t *testing.T) {
	reg := NewRegistry()
	n, err := NewNode(reg, u(70))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 0; i < 10000; i++ {
		n.inbox <- Received{}
		if _, err := n.WaitInbox(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if after := heap(); after > before+512<<10 {
		t.Errorf("heap grew %d KiB over 10k answered WaitInbox calls", (after-before)>>10)
	}
}

// TestReliableSendReleasesTimer: an acked SendVNReliable must not leave
// its backoff timer behind. With time.After the runtime held one per send
// until RetransmitBase, a minute here, elapsed.
func TestReliableSendReleasesTimer(t *testing.T) {
	reg := NewRegistry()
	mk := func(last byte) *Node {
		n, err := NewNode(reg, u(last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.SetVNAddr(addr.SelfAddress(n.Underlay))
		n.EnableReliable(ReliableConfig{RetransmitBase: time.Minute})
		return n
	}
	s, r := mk(72), mk(73)
	// s sends to r as unicast; r acks through a route whose address and
	// only member are s.
	r.SetAnycastRoute(s.Underlay, s.Underlay)
	send := func(k int) {
		for i := 0; i < k; i++ {
			if err := s.SendVNReliable(r.Underlay, r.VNAddr(), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := r.WaitInbox(waitShort); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// The receiver's dedup window fills first, so that it holds no more
	// below.
	send(dedupWindow)
	before := heap()
	const sends = 4000
	send(sends)
	if after := heap(); after > before+256<<10 {
		t.Errorf("heap grew %d KiB over %d acked reliable sends", (after-before)>>10, sends)
	}
}
