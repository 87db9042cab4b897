package packet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
)

// templateHeaders builds the outer/inner pair the batched send path
// freezes into a template: vn-encap outer, optional underlay-destination
// option (under == 0 means none), and a trace-tag option placeholder.
// The returned inner carries tag as its trace-tag value, so serializing
// it through SerializeVN is the per-packet oracle for Emit.
func templateHeaders(srcV4, dstV4 uint32, version, hop uint8, srcHi, srcLo, dstHi, dstLo uint64, under, tag uint32) (V4Header, VNHeader) {
	outer := V4Header{Proto: ProtoVNEncap, Src: addr.V4(srcV4), Dst: addr.V4(dstV4)}
	inner := VNHeader{
		Version:  version,
		HopLimit: hop,
		Src:      addr.VN{Hi: srcHi, Lo: srcLo},
		Dst:      addr.VN{Hi: dstHi, Lo: dstLo},
	}
	var opts []Option
	if under != 0 {
		ub := make([]byte, 4)
		binary.BigEndian.PutUint32(ub, under)
		opts = append(opts, Option{Type: OptUnderlayDst, Value: ub})
	}
	tb := make([]byte, 4)
	binary.BigEndian.PutUint32(tb, tag)
	inner.Options = append(opts, Option{Type: OptTraceTag, Value: tb})
	return outer, inner
}

// TestVNTemplateEmitMatchesSerializer pins the template contract on
// deterministic cases: Emit output is byte-identical to SerializeVN of
// the same headers and payload, including length-overflow errors, and
// RewriteOuter re-addresses the emitted wire without breaking V4
// decodability.
func TestVNTemplateEmitMatchesSerializer(t *testing.T) {
	cases := []struct {
		name     string
		under    uint32
		hop      uint8
		tag      uint32
		payload  []byte
		overflow bool
	}{
		{"registered-native", 0, 63, 0xDEADBEEF, []byte("native payload"), false},
		{"self-addressed", 0x14000001, 63, 1, []byte("self payload"), false},
		{"zero-hop-normalized", 0x14000001, 0, 0, nil, false},
		{"empty-payload", 0, 5, 42, []byte{}, false},
		{"payload-overflow", 0, 63, 7, make([]byte, 0x10000), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outer, inner := templateHeaders(0x0A000001, 0x14000009, 8, tc.hop, 0, 7, 1, 2, tc.under, tc.tag)
			var tmpl VNTemplate
			// Build with the tag zeroed, as the batch path does; Emit
			// patches the real tag per packet.
			_, zeroed := templateHeaders(0x0A000001, 0x14000009, 8, tc.hop, 0, 7, 1, 2, tc.under, 0)
			if err := tmpl.Build(outer, zeroed); err != nil {
				t.Fatal(err)
			}
			if tmpl.tagOff < 0 {
				t.Fatal("template lost the trace-tag option")
			}
			got, gotErr := tmpl.Emit(nil, tc.payload, tc.tag)

			b := GetSerializeBuffer()
			defer PutSerializeBuffer(b)
			oraErr := SerializeVN(b, tc.payload, &outer, &inner)
			if tc.overflow {
				if gotErr == nil || oraErr == nil || gotErr.Error() != oraErr.Error() {
					t.Fatalf("overflow errors diverge: %v vs %v", gotErr, oraErr)
				}
				return
			}
			if gotErr != nil || oraErr != nil {
				t.Fatalf("emit %v, serialize %v", gotErr, oraErr)
			}
			if !bytes.Equal(got, b.Bytes()) {
				t.Fatalf("wire diverges:\n emit %x\n want %x", got, b.Bytes())
			}
			if len(got) != len(tmpl.hdr)+len(tc.payload) {
				t.Fatalf("wire length %d, want %d+%d", len(got), len(tmpl.hdr), len(tc.payload))
			}

			if !RewriteOuter(got, 0x0B000001, 0x0B000002) {
				t.Fatal("RewriteOuter rejected its own wire")
			}
			h, _, err := DecodeV4(got)
			if err != nil {
				t.Fatalf("rewritten wire undecodable: %v", err)
			}
			if h.Src != 0x0B000001 || h.Dst != 0x0B000002 || h.TTL != DefaultTTL {
				t.Fatalf("rewrite fields wrong: %+v", h)
			}
		})
	}
	if RewriteOuter(make([]byte, V4HeaderLen-1), 1, 2) {
		t.Error("RewriteOuter accepted a truncated wire")
	}
}

// FuzzVNTemplateEmit fuzzes the vectorised header writer against the
// per-packet serializer oracle: for arbitrary header fields, tag and
// payload, a template built once and patched per packet must emit bytes
// identical to SerializeVN of the same headers — same errors included.
func FuzzVNTemplateEmit(f *testing.F) {
	f.Add(uint32(0x0A000001), uint32(0x14000009), uint8(8), uint8(63),
		uint64(0), uint64(7), uint64(1), uint64(2),
		uint32(0x14000001), uint32(0xDEADBEEF), []byte("seed payload"))
	f.Add(uint32(1), uint32(2), uint8(8), uint8(0),
		uint64(3), uint64(4), uint64(5), uint64(6),
		uint32(0), uint32(0), []byte{})
	f.Add(uint32(0xFFFFFFFF), uint32(0), uint8(255), uint8(1),
		uint64(1<<63), uint64(0xFFFFFFFFFFFFFFFF), uint64(0), uint64(1),
		uint32(7), uint32(1), bytes.Repeat([]byte{0xAB}, 100))
	f.Fuzz(func(t *testing.T, srcV4, dstV4 uint32, version, hop uint8,
		srcHi, srcLo, dstHi, dstLo uint64, under, tag uint32, payload []byte) {
		outer, inner := templateHeaders(srcV4, dstV4, version, hop, srcHi, srcLo, dstHi, dstLo, under, tag)
		_, zeroed := templateHeaders(srcV4, dstV4, version, hop, srcHi, srcLo, dstHi, dstLo, under, 0)
		var tmpl VNTemplate
		if err := tmpl.Build(outer, zeroed); err != nil {
			t.Skip("headers unserializable")
		}
		got, gotErr := tmpl.Emit(nil, payload, tag)

		b := GetSerializeBuffer()
		defer PutSerializeBuffer(b)
		oraErr := SerializeVN(b, payload, &outer, &inner)
		if (gotErr == nil) != (oraErr == nil) {
			t.Fatalf("error divergence: emit %v, serialize %v", gotErr, oraErr)
		}
		if gotErr != nil {
			if gotErr.Error() != oraErr.Error() {
				t.Fatalf("error text divergence: %q vs %q", gotErr, oraErr)
			}
			return
		}
		if !bytes.Equal(got, b.Bytes()) {
			t.Fatalf("wire diverges:\n emit %x\n want %x", got, b.Bytes())
		}
		if !RewriteOuter(got, addr.V4(dstV4), addr.V4(srcV4)) {
			t.Fatal("RewriteOuter rejected emitted wire")
		}
		if h, _, err := DecodeV4(got); err != nil {
			t.Fatalf("rewritten wire undecodable: %v", err)
		} else if h.Src != addr.V4(dstV4) || h.Dst != addr.V4(srcV4) || h.TTL != DefaultTTL {
			t.Fatalf("rewrite fields wrong: %+v", h)
		}
	})
}
