package packet

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/evolvable-net/evolve/internal/addr"
)

func TestV4RoundTrip(t *testing.T) {
	h := V4Header{Proto: ProtoPing, TTL: 17, Src: addr.MustParseV4("10.0.0.1"), Dst: addr.MustParseV4("10.0.0.2")}
	b := NewSerializeBuffer()
	payload := []byte("hello")
	if err := Serialize(b, payload, &h); err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := DecodeV4(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header = %+v, want %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload = %q", gotPayload)
	}
}

func TestV4DefaultTTL(t *testing.T) {
	h := V4Header{Proto: ProtoPayload, Src: 1, Dst: 2}
	b := NewSerializeBuffer()
	if err := Serialize(b, nil, &h); err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeV4(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.TTL != DefaultTTL {
		t.Errorf("TTL = %d, want default %d", got.TTL, DefaultTTL)
	}
}

func TestV4ChecksumDetectsCorruption(t *testing.T) {
	h := V4Header{Proto: ProtoPayload, TTL: 5, Src: 1, Dst: 2}
	b := NewSerializeBuffer()
	if err := Serialize(b, []byte("x"), &h); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), b.Bytes()...)
	wire[9] ^= 0xFF // flip a source-address byte
	if _, _, err := DecodeV4(wire); err == nil {
		t.Error("corrupted packet decoded without error")
	}
}

func TestV4DecodeErrors(t *testing.T) {
	if _, _, err := DecodeV4(nil); err != ErrTruncated {
		t.Errorf("nil: %v", err)
	}
	if _, _, err := DecodeV4(make([]byte, 8)); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	bad := make([]byte, V4HeaderLen)
	bad[0] = 6
	if _, _, err := DecodeV4(bad); err == nil {
		t.Error("wrong version accepted")
	}
}

// TestNextInTrain: a train splits at each packet's total length, and a
// length that cannot delimit a packet hands back the whole remainder.
func TestNextInTrain(t *testing.T) {
	var train []byte
	var want [][]byte
	for _, p := range []string{"a", "", "three"} {
		b := NewSerializeBuffer()
		h := V4Header{Proto: ProtoPing, Src: 1, Dst: 2}
		if err := Serialize(b, []byte(p), &h); err != nil {
			t.Fatal(err)
		}
		want = append(want, b.Bytes())
		train = append(train, b.Bytes()...)
	}
	tail := []byte{4, 0, 0xff, 0xff, 1, 2}
	train = append(train, tail...)
	for i, rest := 0, train; len(rest) > 0; i++ {
		var pkt []byte
		pkt, rest = NextInTrain(rest)
		if i == len(want) {
			if !bytes.Equal(pkt, tail) || len(rest) != 0 {
				t.Fatalf("bad tail split as %x + %x, want it whole", pkt, rest)
			}
			continue
		}
		if !bytes.Equal(pkt, want[i]) {
			t.Fatalf("packet %d = %x, want %x", i, pkt, want[i])
		}
		if cap(pkt) != len(pkt) {
			t.Fatalf("packet %d can grow into its successor", i)
		}
	}
}

func TestVNRoundTrip(t *testing.T) {
	h := VNHeader{
		Version:  8,
		HopLimit: 9,
		Src:      addr.SelfAddress(addr.MustParseV4("10.1.1.1")),
		Dst:      addr.MustParseVN("00000042:00000000:00000000:00000007"),
	}
	h = h.WithUnderlayDst(addr.MustParseV4("20.2.2.2"))
	b := NewSerializeBuffer()
	payload := []byte("next generation")
	if err := Serialize(b, payload, &h); err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := DecodeVN(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 8 || got.HopLimit != 9 || got.Src != h.Src || got.Dst != h.Dst {
		t.Errorf("header mismatch: %+v", got)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload = %q", gotPayload)
	}
	u, ok := got.UnderlayDst()
	if !ok || u != addr.MustParseV4("20.2.2.2") {
		t.Errorf("UnderlayDst = %s, %v", u, ok)
	}
}

func TestVNUnderlayDstFallsBackToSelfAddress(t *testing.T) {
	h := VNHeader{Version: 8, Dst: addr.SelfAddress(addr.MustParseV4("9.9.9.9"))}
	u, ok := h.UnderlayDst()
	if !ok || u != addr.MustParseV4("9.9.9.9") {
		t.Errorf("fallback UnderlayDst = %s, %v", u, ok)
	}
	native := VNHeader{Version: 8, Dst: addr.VN{Hi: 1}}
	if _, ok := native.UnderlayDst(); ok {
		t.Error("native destination without option should have no underlay dst")
	}
}

func TestWithUnderlayDstReplaces(t *testing.T) {
	h := VNHeader{Version: 8}
	h = h.WithUnderlayDst(1)
	h = h.WithUnderlayDst(2)
	n := 0
	for _, o := range h.Options {
		if o.Type == OptUnderlayDst {
			n++
		}
	}
	if n != 1 {
		t.Errorf("got %d OptUnderlayDst options", n)
	}
	u, _ := h.UnderlayDst()
	if u != 2 {
		t.Errorf("UnderlayDst = %v, want 2", u)
	}
}

func TestEncapDecapRoundTrip(t *testing.T) {
	outer := V4Header{Src: addr.MustParseV4("10.0.0.1"), Dst: addr.MustParseV4("240.0.0.1"), TTL: 32}
	inner := VNHeader{Version: 8, Src: addr.SelfAddress(addr.MustParseV4("10.0.0.1")), Dst: addr.VN{Hi: 5, Lo: 6}}
	payload := []byte("tunnelled")
	wire, err := encapVN(outer, inner, payload)
	if err != nil {
		t.Fatal(err)
	}
	gotOuter, gotInner, gotPayload, err := decapVN(wire)
	if err != nil {
		t.Fatal(err)
	}
	if gotOuter.Proto != ProtoVNEncap {
		t.Errorf("outer proto = %s", gotOuter.Proto)
	}
	if gotOuter.Src != outer.Src || gotOuter.Dst != outer.Dst {
		t.Error("outer addresses mangled")
	}
	if gotInner.Src != inner.Src || gotInner.Dst != inner.Dst || gotInner.Version != 8 {
		t.Error("inner header mangled")
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload = %q", gotPayload)
	}
}

func TestDecapRejectsNonEncap(t *testing.T) {
	h := V4Header{Proto: ProtoPayload, Src: 1, Dst: 2}
	b := NewSerializeBuffer()
	if err := Serialize(b, []byte("plain"), &h); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecapVNShared(b.Bytes(), nil); err == nil {
		t.Error("plain packet decapped without error")
	}
}

func TestVNDecodeErrors(t *testing.T) {
	if _, _, err := DecodeVN(make([]byte, 10)); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	// Claim an option area longer than the data.
	h := VNHeader{Version: 8}
	b := NewSerializeBuffer()
	if err := Serialize(b, nil, &h); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), b.Bytes()...)
	wire[5] = 200 // options length
	if _, _, err := DecodeVN(wire); err == nil {
		t.Error("overlong options accepted")
	}
}

func TestV4PropertyRoundTrip(t *testing.T) {
	f := func(proto, ttl uint8, src, dst uint32, payload []byte) bool {
		if ttl == 0 {
			ttl = 1
		}
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		h := V4Header{Proto: Protocol(proto), TTL: ttl, Src: addr.V4(src), Dst: addr.V4(dst)}
		b := NewSerializeBuffer()
		if err := Serialize(b, payload, &h); err != nil {
			return false
		}
		got, gotPayload, err := DecodeV4(b.Bytes())
		return err == nil && got == h && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVNPropertyRoundTrip(t *testing.T) {
	f := func(ver, hop uint8, srcHi, srcLo, dstHi, dstLo uint64, payload []byte, tag uint32) bool {
		if hop == 0 {
			hop = 1
		}
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		h := VNHeader{
			Version: ver, HopLimit: hop,
			Src: addr.VN{Hi: srcHi, Lo: srcLo},
			Dst: addr.VN{Hi: dstHi, Lo: dstLo},
		}
		h = h.WithUnderlayDst(addr.V4(tag))
		b := NewSerializeBuffer()
		if err := Serialize(b, payload, &h); err != nil {
			return false
		}
		got, gotPayload, err := DecodeVN(b.Bytes())
		if err != nil || !bytes.Equal(gotPayload, payload) {
			return false
		}
		u, ok := got.UnderlayDst()
		return got.Version == ver && got.HopLimit == hop &&
			got.Src == h.Src && got.Dst == h.Dst && ok && u == addr.V4(tag)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSerializeBufferGrowth(t *testing.T) {
	b := NewSerializeBuffer()
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i)
	}
	b.PushPayload(big)
	front := b.PrependBytes(300)
	for i := range front {
		front[i] = 0xAB
	}
	got := b.Bytes()
	if len(got) != 4396 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0] != 0xAB || got[299] != 0xAB {
		t.Error("prepended bytes wrong")
	}
	if !bytes.Equal(got[300:], big) {
		t.Error("payload corrupted by growth")
	}
}

func TestChecksumKnownValues(t *testing.T) {
	// RFC 1071 example: checksum over the given words.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %04x", got)
	}
	if got := Checksum(nil); got != 0xFFFF {
		t.Errorf("empty checksum = %04x", got)
	}
	// Odd length pads with zero.
	if Checksum([]byte{0xFF}) != ^uint16(0xFF00) {
		t.Error("odd-length checksum wrong")
	}
}

func BenchmarkEncapVN(b *testing.B) {
	outer := V4Header{Proto: ProtoVNEncap, Src: 1, Dst: 2}
	inner := VNHeader{Version: 8, Src: addr.VN{Hi: 1}, Dst: addr.VN{Hi: 2}}
	payload := make([]byte, 512)
	buf := NewSerializeBuffer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := SerializeVN(buf, payload, &outer, &inner); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecapVN(b *testing.B) {
	outer := V4Header{Src: 1, Dst: 2}
	inner := VNHeader{Version: 8, Src: addr.VN{Hi: 1}, Dst: addr.VN{Hi: 2}}
	wire, err := encapVN(outer, inner, make([]byte, 512))
	if err != nil {
		b.Fatal(err)
	}
	scratch := make([]Option, 0, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecapVNShared(wire, scratch[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
