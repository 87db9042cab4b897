package packet

import (
	"bytes"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
)

func buildWire(t *testing.T) []byte {
	t.Helper()
	inner := VNHeader{
		Version: 8,
		Src:     addr.VN{Hi: 1, Lo: 2},
		Dst:     addr.VN{Hi: 3, Lo: 4},
		Options: []Option{
			{Type: OptUnderlayDst, Value: []byte{10, 0, 0, 1}},
			{Type: OptTraceTag, Value: []byte{0xde, 0xad, 0xbe, 0xef}},
		},
	}
	wire, err := encapVN(V4Header{Src: 0x0a000001, Dst: 0x0a000002}, inner, []byte("payload-bytes"))
	if err != nil {
		t.Fatalf("encapVN: %v", err)
	}
	return wire
}

// TestDecapVNSharedEquivalence verifies the zero-copy decode returns
// byte-identical headers, options and payload to the copying decapVN.
func TestDecapVNSharedEquivalence(t *testing.T) {
	wire := buildWire(t)

	o1, i1, p1, err := decapVN(wire)
	if err != nil {
		t.Fatalf("decapVN: %v", err)
	}
	scratch := make([]Option, 0, 4)
	o2, i2, p2, err := DecapVNShared(wire, scratch[:0])
	if err != nil {
		t.Fatalf("DecapVNShared: %v", err)
	}

	if o1 != o2 {
		t.Fatalf("outer mismatch: %+v vs %+v", o1, o2)
	}
	if i1.Version != i2.Version || i1.HopLimit != i2.HopLimit || i1.Src != i2.Src || i1.Dst != i2.Dst {
		t.Fatalf("inner fixed-field mismatch: %+v vs %+v", i1, i2)
	}
	if len(i1.Options) != len(i2.Options) {
		t.Fatalf("option count mismatch: %d vs %d", len(i1.Options), len(i2.Options))
	}
	for k := range i1.Options {
		if i1.Options[k].Type != i2.Options[k].Type || !bytes.Equal(i1.Options[k].Value, i2.Options[k].Value) {
			t.Fatalf("option %d mismatch: %+v vs %+v", k, i1.Options[k], i2.Options[k])
		}
	}
	if !bytes.Equal(p1, p2) {
		t.Fatalf("payload mismatch: %q vs %q", p1, p2)
	}

	// The shared form must alias the wire, not copy it.
	if len(p2) > 0 && &p2[0] != &wire[len(wire)-len(p2)] {
		t.Fatal("shared payload does not alias the wire buffer")
	}
}

// TestDecapVNSharedZeroAlloc pins the zero-copy property: with a reused
// scratch slice, decoding allocates nothing.
func TestDecapVNSharedZeroAlloc(t *testing.T) {
	wire := buildWire(t)
	scratch := make([]Option, 0, 8)
	allocs := testing.AllocsPerRun(200, func() {
		_, _, _, err := DecapVNShared(wire, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecapVNShared allocates %v per run, want 0", allocs)
	}
}

// TestDecapVNSharedTruncation mirrors the copying decoder's error
// behaviour on malformed option regions.
func TestDecapVNSharedTruncation(t *testing.T) {
	wire := buildWire(t)
	for cut := 1; cut < len(wire); cut += 7 {
		_, _, _, errCopy := decapVN(wire[:cut])
		_, _, _, errShared := DecapVNShared(wire[:cut], nil)
		if (errCopy == nil) != (errShared == nil) {
			t.Fatalf("cut %d: copy err %v, shared err %v", cut, errCopy, errShared)
		}
	}
}
