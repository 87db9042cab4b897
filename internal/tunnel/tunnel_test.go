package tunnel

import (
	"bytes"
	"errors"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/trace"
)

var (
	locA = addr.MustParseV4("10.0.0.1")
	locB = addr.MustParseV4("20.0.0.1")
	locC = addr.MustParseV4("30.0.0.1")
)

func vnHeader() packet.VNHeader {
	return packet.VNHeader{
		Version:  8,
		HopLimit: 10,
		Src:      addr.SelfAddress(locA),
		Dst:      addr.VN{Hi: 7, Lo: 9},
	}
}

func TestEncapDecapAcrossTunnel(t *testing.T) {
	a := NewEndpoint(locA)
	b := NewEndpoint(locB)
	var counters trace.Counters
	a.Observe(nil, &counters, 0)
	b.Observe(nil, &counters, 0)

	wire, err := a.EncapToShared(locB, vnHeader(), []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	from, inner, payload, err := b.DecapShared(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if from != locA {
		t.Errorf("from = %s", from)
	}
	if inner.HopLimit != 9 {
		t.Errorf("hop limit = %d, want decremented 9", inner.HopLimit)
	}
	if !bytes.Equal(payload, []byte("data")) {
		t.Errorf("payload = %q", payload)
	}
	if snap := counters.Snapshot(); snap.Encaps != 1 || snap.Decaps != 1 {
		t.Errorf("observed counters: encaps %d decaps %d, want 1/1", snap.Encaps, snap.Decaps)
	}
}

func TestEncapToAnycastNeedsNoTunnel(t *testing.T) {
	a := NewEndpoint(locA)
	any, _ := addr.Option1Address(0)
	wire, err := a.EncapToShared(any, vnHeader(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	outer, _, err := packet.DecodeV4(wire)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Dst != any || outer.Src != locA || outer.Proto != packet.ProtoVNEncap {
		t.Errorf("outer = %+v", outer)
	}
}

func TestDecapRejectsForeignDestination(t *testing.T) {
	a := NewEndpoint(locA)
	c := NewEndpoint(locC)
	var counters trace.Counters
	c.Observe(nil, &counters, 0)
	wire, err := a.EncapToShared(locB, vnHeader(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.DecapShared(wire, nil); !errors.Is(err, ErrNotForUs) || err.Error() != ErrNotForUs.Error()+": "+locB.String() {
		t.Errorf("err = %v, want %v naming %s", err, ErrNotForUs, locB)
	}
	if snap := counters.Snapshot(); snap.Decaps != 0 {
		t.Errorf("a rejected decap was counted: decaps %d", snap.Decaps)
	}
}

func TestDecapRejectsGarbage(t *testing.T) {
	a := NewEndpoint(locA)
	var counters trace.Counters
	a.Observe(nil, &counters, 0)
	if _, _, _, err := a.DecapShared([]byte{1, 2, 3}, nil); err == nil {
		t.Error("garbage decapped")
	}
	if err := a.PatchEncap([]byte{1, 2, 3}, locB); !errors.Is(err, packet.ErrTruncated) {
		t.Errorf("PatchEncap of garbage: err = %v, want ErrTruncated", err)
	}
	if snap := counters.Snapshot(); snap.Encaps != 0 || snap.Decaps != 0 {
		t.Errorf("rejected garbage was counted: encaps %d decaps %d", snap.Encaps, snap.Decaps)
	}
}

func TestHopLimitExpiresAcrossRelays(t *testing.T) {
	// Hop limit 3 permits exactly two tunnel transits (decremented on each
	// encap): A→B ok, B→C ok, C→… fails. The relay legs patch the wire in
	// place, as the send engine's do.
	a := NewEndpoint(locA)
	relay := NewEndpoint(locB)
	var counters trace.Counters
	relay.Observe(nil, &counters, 0)

	h := vnHeader()
	h.HopLimit = 3
	wire, err := a.EncapToShared(locB, h, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := relay.DecapShared(wire, nil); err != nil {
		t.Fatal(err)
	}
	if err := relay.ForwardShared(wire, locC); err != nil {
		t.Fatal(err)
	}
	if relay.Local != locC {
		t.Fatalf("relay stands at %s after forwarding to %s", relay.Local, locC)
	}
	// Every leg is a fresh, valid underlay packet.
	outer, inner, payload, err := packet.DecapVNShared(wire, nil)
	if err != nil {
		t.Fatalf("patched wire no longer parses: %v", err)
	}
	if outer.Src != locB || outer.Dst != locC || outer.TTL != packet.DefaultTTL {
		t.Errorf("outer after relay = %+v", outer)
	}
	if inner.HopLimit != 1 || !bytes.Equal(payload, []byte("data")) {
		t.Fatalf("inner after relay: hop limit %d payload %q", inner.HopLimit, payload)
	}
	before := bytes.Clone(wire)
	if err := relay.ForwardShared(wire, locA); !errors.Is(err, ErrHopLimit) {
		t.Errorf("err = %v, want ErrHopLimit", err)
	}
	if !bytes.Equal(wire, before) || relay.Local != locC {
		t.Error("an expired relay still rewrote the packet or moved the endpoint")
	}
	if _, err := relay.EncapToShared(locA, inner, payload); !errors.Is(err, ErrHopLimit) {
		t.Errorf("serializing encap: err = %v, want ErrHopLimit", err)
	}
	// The two expired encaps count nothing.
	if snap := counters.Snapshot(); snap.Encaps != 1 || snap.Decaps != 2 {
		t.Errorf("relay counted %d encaps and %d decaps, want 1 and 2", snap.Encaps, snap.Decaps)
	}
}

func TestUnderlayDstOptionSurvivesTunnel(t *testing.T) {
	a := NewEndpoint(locA)
	b := NewEndpoint(locB)
	h := vnHeader().WithUnderlayDst(locC)
	wire, err := a.EncapToShared(locB, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, inner, _, err := b.DecapShared(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := inner.UnderlayDst()
	if !ok || u != locC {
		t.Errorf("UnderlayDst = %s ok %v", u, ok)
	}
}

func BenchmarkEncapDecapRelay(b *testing.B) {
	a := NewEndpoint(locA)
	m := NewEndpoint(locB)
	payload := make([]byte, 256)
	scratch := make([]packet.Option, 0, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := a.EncapToShared(locB, vnHeader(), payload)
		if err != nil {
			b.Fatal(err)
		}
		m.Local = locB
		if _, _, _, err := m.DecapShared(wire, scratch[:0]); err != nil {
			b.Fatal(err)
		}
		if err := m.ForwardShared(wire, locC); err != nil {
			b.Fatal(err)
		}
	}
}

func TestProbeRoundTrip(t *testing.T) {
	src, dst := addr.V4FromOctets(10, 0, 0, 1), addr.V4FromOctets(10, 0, 0, 2)
	for _, ack := range []bool{false, true} {
		wire, err := EncodeProbe(src, dst, 0xDEADBEEFCAFE, ack)
		if err != nil {
			t.Fatal(err)
		}
		outer, nonce, gotAck, err := DecodeProbe(wire)
		if err != nil {
			t.Fatal(err)
		}
		if outer.Src != src || outer.Dst != dst {
			t.Errorf("ack=%v addresses %s → %s", ack, outer.Src, outer.Dst)
		}
		if nonce != 0xDEADBEEFCAFE {
			t.Errorf("ack=%v nonce = %#x", ack, nonce)
		}
		if gotAck != ack {
			t.Errorf("ack leg = %v, want %v", gotAck, ack)
		}
		wantProto := packet.ProtoProbe
		if ack {
			wantProto = packet.ProtoProbeAck
		}
		if outer.Proto != wantProto {
			t.Errorf("proto = %s", outer.Proto)
		}
	}
}

func TestDecodeProbeRejectsNonProbe(t *testing.T) {
	ep := NewEndpoint(addr.V4FromOctets(10, 0, 0, 1))
	wire, err := ep.EncapToShared(addr.V4FromOctets(10, 0, 0, 2), packet.VNHeader{Version: 8}, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeProbe(wire); err == nil {
		t.Error("vn-encap packet decoded as probe")
	}
	short, err := EncodeProbe(addr.V4FromOctets(10, 0, 0, 1), addr.V4FromOctets(10, 0, 0, 2), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the nonce: total-length check in DecodeV4 rejects the lie,
	// so rewrite the length too — the probe decoder must still refuse.
	short = short[:len(short)-4]
	if _, _, _, err := DecodeProbe(short); err == nil {
		t.Error("truncated probe accepted")
	}
}

// FuzzDecodeProbe: DecodeProbe never panics, and a keepalive it accepts
// round-trips EncodeProbe — re-encoding the decoded addresses, nonce and
// leg decodes to the same four.
func FuzzDecodeProbe(f *testing.F) {
	src, dst := addr.V4FromOctets(10, 0, 0, 1), addr.V4FromOctets(10, 0, 0, 2)
	for _, ack := range []bool{false, true} {
		wire, err := EncodeProbe(src, dst, 0xDEADBEEFCAFE, ack)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(wire[:len(wire)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, wire []byte) {
		outer, nonce, ack, err := DecodeProbe(wire)
		if err != nil {
			return
		}
		again, err := EncodeProbe(outer.Src, outer.Dst, nonce, ack)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		outer2, nonce2, ack2, err := DecodeProbe(again)
		if err != nil {
			t.Fatalf("re-encoded probe does not decode: %v", err)
		}
		if outer2.Src != outer.Src || outer2.Dst != outer.Dst || nonce2 != nonce || ack2 != ack {
			t.Fatalf("round trip diverged: %s→%s %#x ack=%v, then %s→%s %#x ack=%v",
				outer.Src, outer.Dst, nonce, ack, outer2.Src, outer2.Dst, nonce2, ack2)
		}
	})
}
