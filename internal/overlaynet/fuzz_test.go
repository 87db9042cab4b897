package overlaynet

import (
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/tunnel"
)

// FuzzDatagram feeds arbitrary datagrams — trains, truncated tails, bad
// checksums — to a node's datagram entry. Nothing may panic, and every
// packet the walk finds is counted exactly once in Stats, but for the
// control packets handle answers or consumes untallied: probes and probe
// acks that decode, and delivery acks addressed to the node.
func FuzzDatagram(f *testing.F) {
	reg := NewRegistry()
	n, err := NewNode(reg, u(50))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { n.Close() })
	// Nothing may write to the node's own socket: its handler goroutine
	// would then share the node's trains with this one.
	reg.RemoveNode(n.Underlay)
	sinkAddr := u(51)
	wireSink(f, reg, sinkAddr)
	me := addr.SelfAddress(n.Underlay)
	n.SetVNAddr(me)
	anycast, err := addr.Option1Address(0)
	if err != nil {
		f.Fatal(err)
	}
	n.ServeAnycast(anycast)
	relayed := addr.SelfAddress(sinkAddr)
	n.AddVNRoute(addr.HostVNPrefix(relayed), sinkAddr)

	control := func(pkt []byte) bool {
		outer, rest, err := packet.DecodeV4(pkt)
		if err != nil {
			return false
		}
		switch outer.Proto {
		case packet.ProtoProbe, packet.ProtoProbeAck:
			_, _, _, err := tunnel.DecodeProbe(pkt)
			return err == nil
		case packet.ProtoVNEncap:
			inner, _, err := packet.DecodeVN(rest)
			if err != nil || (outer.Dst != n.Underlay && outer.Dst != anycast) || inner.Dst != me {
				return false
			}
			_, ack := deliveryOpt(inner, packet.OptDeliveryAck)
			return ack
		}
		return false
	}
	tally := func() uint64 {
		s := n.Stats()
		return s.Delivered + s.Forwarded + s.Exited + s.Dropped
	}

	encap := func(dst addr.VN, hdr packet.VNHeader, payload string) []byte {
		hdr.Version, hdr.Dst = 8, dst
		wire, err := packet.EncapVN(packet.V4Header{Src: sinkAddr, Dst: n.Underlay}, hdr, []byte(payload))
		if err != nil {
			f.Fatal(err)
		}
		return wire
	}
	probe, err := tunnel.EncodeProbe(sinkAddr, n.Underlay, 7, false)
	if err != nil {
		f.Fatal(err)
	}
	toMe := encap(me, packet.VNHeader{}, "hello")
	relay := encap(relayed, packet.VNHeader{}, "onward")
	exit := encap(addr.SelfAddress(u(99)), packet.VNHeader{}.WithUnderlayDst(sinkAddr), "out")
	nowhere := encap(addr.SelfAddress(u(99)), packet.VNHeader{}, "unregistered")
	ack := encap(me, packet.VNHeader{Options: []packet.Option{seqOption(packet.OptDeliveryAck, 1)}}, "")
	group := encap(addr.MulticastVN(7), packet.VNHeader{}, "no group state")
	train := append(append(append(append(append([]byte(nil), relay...), toMe...), probe...), exit...), nowhere...)
	badSum := append([]byte(nil), train...)
	badSum[len(relay)+9] ^= 0xff
	f.Add([]byte{})
	f.Add(toMe)
	f.Add(ack)
	f.Add(group)
	f.Add(train)
	f.Add(train[:len(train)-5])
	f.Add(badSum)

	f.Fuzz(func(t *testing.T, dg []byte) {
		want := uint64(0)
		for rest := dg; ; {
			var pkt []byte
			pkt, rest = packet.NextInTrain(rest)
			if !control(pkt) {
				want++
			}
			if len(rest) == 0 {
				break
			}
		}
		before := tally()
		n.receive(append([]byte(nil), dg...))
		if got := tally() - before; got != want {
			t.Errorf("Stats moved by %d, want %d", got, want)
		}
		for len(n.Inbox) > 0 {
			<-n.Inbox
		}
	})
}
