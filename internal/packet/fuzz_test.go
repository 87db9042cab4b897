package packet

import (
	"bytes"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
)

// Fuzz targets: the decoders must never panic on arbitrary bytes, and
// anything they accept must re-serialize to an equivalent packet
// (decode/encode round-trip stability). Run with `go test -fuzz=FuzzX`;
// the seed corpus below runs on every ordinary `go test`.

func seedWires(f *testing.F) {
	// Valid packets of each flavour.
	b := NewSerializeBuffer()
	h4 := V4Header{Proto: ProtoPing, TTL: 9, Src: 0x0A000001, Dst: 0x0A000002}
	if err := Serialize(b, []byte("seed"), &h4); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), b.Bytes()...))

	vn := VNHeader{Version: 8, HopLimit: 5, Src: addr.SelfAddress(7), Dst: addr.VN{Hi: 1, Lo: 2}}
	vn = vn.WithUnderlayDst(0x14000001)
	wire, err := encapVN(V4Header{Src: 1, Dst: 2}, vn, []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)

	// A fallback-marked delivery (the graceful-degradation wire form).
	fb := VNHeader{Version: 8, HopLimit: 9, Src: addr.SelfAddress(3), Dst: addr.SelfAddress(4)}
	fb.Options = []Option{{Type: OptFallback, Value: []byte{FallbackMarkState}}}
	fbw, err := encapVN(V4Header{Src: 3, Dst: 4}, fb, []byte("degraded"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fbw)

	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte{4})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(bytes.Repeat([]byte{0x00}, 64))
}

func FuzzDecodeV4(f *testing.F) {
	seedWires(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := DecodeV4(data)
		if err != nil {
			return
		}
		if h.TTL == 0 {
			// The serializer normalizes TTL 0 to the default; byte
			// equality cannot hold for such inputs.
			return
		}
		// Accepted packets must round-trip to identical wire bytes up to
		// the decoded total length.
		b := NewSerializeBuffer()
		if err := Serialize(b, payload, &h); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		total := V4HeaderLen + len(payload)
		if !bytes.Equal(b.Bytes(), data[:total]) {
			t.Fatalf("round trip diverged:\n in  %x\n out %x", data[:total], b.Bytes())
		}
	})
}

func FuzzDecodeVN(f *testing.F) {
	seedWires(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := DecodeVN(data)
		if err != nil {
			return
		}
		b := NewSerializeBuffer()
		if err := Serialize(b, payload, &h); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		// Re-decode and compare semantics (byte equality may not hold if
		// the source encoded option values oddly, but structure must).
		h2, payload2, err := DecodeVN(b.Bytes())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		wantHop := h.HopLimit
		if wantHop == 0 {
			wantHop = DefaultHopLimit // serializer normalization
		}
		if h2.Version != h.Version || h2.HopLimit != wantHop ||
			h2.Src != h.Src || h2.Dst != h.Dst || len(h2.Options) != len(h.Options) {
			t.Fatalf("semantic divergence: %+v vs %+v", h, h2)
		}
		if !bytes.Equal(payload, payload2) {
			t.Fatal("payload diverged")
		}
	})
}

func FuzzDecapVN(f *testing.F) {
	seedWires(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		outer, inner, payload, err := decapVN(data)
		if _, _, _, errShared := DecapVNShared(data, nil); (err == nil) != (errShared == nil) {
			t.Fatalf("copying decap err %v, shared decap err %v", err, errShared)
		}
		if err != nil {
			return
		}
		// Re-encapsulate; semantics must survive.
		wire, err := encapVN(outer, inner, payload)
		if err != nil {
			t.Fatalf("re-encap: %v", err)
		}
		o2, i2, p2, err := decapVN(wire)
		if err != nil {
			t.Fatalf("re-decap: %v", err)
		}
		wantTTL := outer.TTL
		if wantTTL == 0 {
			wantTTL = DefaultTTL
		}
		wantHop := inner.HopLimit
		if wantHop == 0 {
			wantHop = DefaultHopLimit
		}
		if o2.Src != outer.Src || o2.Dst != outer.Dst || o2.TTL != wantTTL {
			t.Fatal("outer diverged")
		}
		if i2.Src != inner.Src || i2.Dst != inner.Dst || i2.Version != inner.Version || i2.HopLimit != wantHop {
			t.Fatal("inner diverged")
		}
		if !bytes.Equal(p2, payload) {
			t.Fatal("payload diverged")
		}
	})
}

// FuzzFallbackMarker pins the fallback marker option byte-identically
// against the serializer oracle: a header carrying OptFallback with any
// marker value must decode to the same marker (through both the copying
// and the zero-copy decoder) and re-serialize to the exact wire bytes
// the first serialization produced. The delivery plane stamps this
// option on every degraded delivery, so a lossy round-trip here would
// silently corrupt the availability accounting downstream.
func FuzzFallbackMarker(f *testing.F) {
	f.Add(uint8(8), uint8(64), FallbackMarkState, []byte("fallback-state"))
	f.Add(uint8(8), uint8(1), FallbackMarkRescue, []byte("fallback-rescue"))
	f.Add(uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint8(255), uint8(255), uint8(255), bytes.Repeat([]byte{0xAB}, 512))
	f.Fuzz(func(t *testing.T, version, hop, mark uint8, payload []byte) {
		h := VNHeader{
			Version:  version,
			HopLimit: hop,
			Src:      addr.SelfAddress(3),
			Dst:      addr.VN{Hi: 9, Lo: 9},
			Options: []Option{
				{Type: OptTraceTag, Value: []byte{0, 0, 0, 1}},
				{Type: OptFallback, Value: []byte{mark}},
			},
		}
		b := NewSerializeBuffer()
		if err := Serialize(b, payload, &h); err != nil {
			t.Fatalf("serialize: %v", err)
		}
		wire := append([]byte(nil), b.Bytes()...)

		h2, p2, err := DecodeVN(wire)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got, ok := h2.FallbackMark(); !ok || got != mark {
			t.Fatalf("marker diverged: got (%d,%v), want (%d,true)", got, ok, mark)
		}
		if !bytes.Equal(p2, payload) {
			t.Fatal("payload diverged")
		}

		// The zero-copy decoder (the hot path's view) must agree.
		hs, _, err := DecodeVNShared(wire, nil)
		if err != nil {
			t.Fatalf("shared decode: %v", err)
		}
		if got, ok := hs.FallbackMark(); !ok || got != mark {
			t.Fatalf("shared marker diverged: got (%d,%v), want (%d,true)", got, ok, mark)
		}

		// Byte-identical pin: re-serializing the decoded header must
		// reproduce the oracle wire exactly (the decoder surfaced the
		// normalized hop limit, so no further normalization applies).
		b2 := NewSerializeBuffer()
		if err := Serialize(b2, p2, &h2); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(b2.Bytes(), wire) {
			t.Fatalf("round trip diverged:\n in  %x\n out %x", wire, b2.Bytes())
		}
	})
}

// FuzzDecrementTTLPreservesValidity holds the in-place outer rewrite to
// any valid underlay packet, not only the template's own output
// (FuzzVNTemplateEmit covers that): after RewriteOuter the packet still
// decodes, under the new addresses and a fresh TTL, payload untouched.
// The name is from packet.DecrementTTL, whose TTL-and-checksum patch
// RewriteOuter took over; it is kept so the fuzz target's seeds and
// corpus keep their identity.
func FuzzDecrementTTLPreservesValidity(f *testing.F) {
	seedWires(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		before, payload, err := DecodeV4(data)
		if err != nil {
			return
		}
		wire := append([]byte(nil), data...)
		src, dst := before.Dst+1, before.Src+1
		if !RewriteOuter(wire, src, dst) {
			t.Fatal("RewriteOuter rejected a packet DecodeV4 accepts")
		}
		after, got, err := DecodeV4(wire)
		if err != nil {
			t.Fatalf("in-place rewrite broke the packet: %v", err)
		}
		want := before
		want.Src, want.Dst, want.TTL = src, dst, DefaultTTL
		if after != want || !bytes.Equal(got, payload) {
			t.Fatalf("rewrite changed more than addresses and TTL:\n before %+v\n after  %+v", before, after)
		}
	})
}
