package addr

import (
	"math"
	"testing"
	"testing/quick"
)

// refPool is the sequential allocator a domain's native addresses were
// once drawn from, kept as NativeVN's reference. It allocates in the low
// 64 bits from the prefix's address plus one upward; a prefix shorter
// than /64 is unbounded there.
type refPool struct {
	prefix VNPrefix
	next   uint64
}

func newRefPool(p VNPrefix) *refPool { return &refPool{prefix: p, next: 1} }

func (pl *refPool) Next() (VN, error) {
	var capacity uint64
	if pl.prefix.Len >= 64 {
		capacity = uint64(1) << (128 - pl.prefix.Len)
	} else {
		capacity = ^uint64(0)
	}
	if capacity != ^uint64(0) && pl.next >= capacity {
		return VN{}, ErrPrefixExhausted
	}
	v := VN{Hi: pl.prefix.Addr.Hi, Lo: pl.prefix.Addr.Lo + pl.next}
	pl.next++
	return v, nil
}

// TestNativeVNMatchesPool: NativeVN(asn, i) is the pool's (i+1)-th draw
// over DomainVNPrefix(asn), for the first 1 000 draws at the smallest,
// a small, a private and the largest 32-bit ASN.
func TestNativeVNMatchesPool(t *testing.T) {
	for _, asn := range []int{0, 7, 65001, math.MaxUint32} {
		pool := newRefPool(DomainVNPrefix(asn))
		for i := uint64(0); i < 1000; i++ {
			want, err := pool.Next()
			if err != nil {
				t.Fatal(err)
			}
			if got := NativeVN(asn, i); got != want {
				t.Fatalf("NativeVN(%d, %d) = %s, pool draw %d = %s", asn, i, got, i+1, want)
			}
		}
	}
}

func TestSelfAddressRoundTrip(t *testing.T) {
	u := MustParseV4("10.9.8.7")
	v := SelfAddress(u)
	if !v.IsSelf() {
		t.Fatal("self-address flag not set")
	}
	back, ok := v.Underlay()
	if !ok || back != u {
		t.Errorf("Underlay = %s, %v", back, ok)
	}
}

func TestSelfAddressInjective(t *testing.T) {
	// The paper requires the self-addressing scheme to derive a *unique*
	// IPvN address from the host's unique IPv(N-1) address.
	f := func(a, b uint32) bool {
		va, vb := SelfAddress(V4(a)), SelfAddress(V4(b))
		if a == b {
			return va == vb
		}
		return va != vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNativeAddressesAreNotSelf(t *testing.T) {
	p := DomainVNPrefix(65001)
	if p.Addr.IsSelf() {
		t.Error("native domain prefix has self flag set")
	}
	for i := uint64(0); i < 100; i++ {
		v := NativeVN(65001, i)
		if v.IsSelf() {
			t.Fatalf("native allocation %s has self flag", v)
		}
		if !p.Contains(v) {
			t.Fatalf("allocation %s outside %s", v, p)
		}
	}
}

func TestVNStringParseRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		v := VN{Hi: hi &^ selfFlag, Lo: lo} // native form renders as hex groups
		back, err := ParseVN(v.String())
		return err == nil && back == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Self form round-trips through the self: notation.
	v := SelfAddress(MustParseV4("1.2.3.4"))
	back, err := ParseVN(v.String())
	if err != nil || back != v {
		t.Errorf("self round trip: %v %v", back, err)
	}
}

func TestVNParseErrors(t *testing.T) {
	for _, s := range []string{"", "1:2:3", "xyzw:0:0:0", "self:999.1.1.1", "1:2:3:4:5"} {
		if _, err := ParseVN(s); err == nil {
			t.Errorf("ParseVN(%q) unexpectedly succeeded", s)
		}
	}
}

func TestVNCompare(t *testing.T) {
	a := VN{Hi: 1, Lo: 0}
	b := VN{Hi: 1, Lo: 1}
	c := VN{Hi: 2, Lo: 0}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 || b.Compare(c) != -1 {
		t.Error("Compare ordering wrong")
	}
}

func TestVNPrefixContains(t *testing.T) {
	p := DomainVNPrefix(7)
	v := NativeVN(7, 0)
	if !p.Contains(v) {
		t.Errorf("%s should contain %s", p, v)
	}
	q := DomainVNPrefix(8)
	if q.Contains(v) {
		t.Errorf("%s should not contain %s", q, v)
	}
	all := MakeVNPrefix(VN{}, 0)
	if !all.Contains(v) || !all.Contains(SelfAddress(1)) {
		t.Error("/0 should contain everything")
	}
}

func TestVNPrefixMaskBoundaries(t *testing.T) {
	v := VN{Hi: ^uint64(0), Lo: ^uint64(0)}
	for _, l := range []uint8{0, 1, 63, 64, 65, 127, 128} {
		p := MakeVNPrefix(v, l)
		if !p.Contains(v) {
			t.Errorf("len %d: canonical prefix must contain its seed", l)
		}
	}
	p64 := MakeVNPrefix(v, 64)
	if p64.Addr.Lo != 0 || p64.Addr.Hi != ^uint64(0) {
		t.Errorf("len 64 mask wrong: %+v", p64.Addr)
	}
	p128 := MakeVNPrefix(v, 128)
	if p128.Addr != v {
		t.Error("/128 should not mask anything")
	}
}

func TestDomainVNPrefixesDisjoint(t *testing.T) {
	f := func(a, b uint16) bool {
		pb := DomainVNPrefix(int(b))
		va := NativeVN(int(a), 0)
		if a == b {
			return pb.Contains(va)
		}
		return !pb.Contains(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNativeVNUnique(t *testing.T) {
	seen := map[VN]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := NativeVN(42, i)
		if seen[v] {
			t.Fatalf("duplicate %s", v)
		}
		seen[v] = true
	}
}

func TestOption1Address(t *testing.T) {
	a, err := Option1Address(0)
	if err != nil {
		t.Fatal(err)
	}
	if !AnycastReserved.Contains(a) {
		t.Errorf("%s should be in reserved block", a)
	}
	b, err := Option1Address(1)
	if err != nil || a == b {
		t.Errorf("groups must get distinct addresses: %s %s %v", a, b, err)
	}
	if _, err := Option1Address(1 << 30); err == nil {
		t.Error("out-of-block group should fail")
	}
}

func TestOption2Address(t *testing.T) {
	isp := MustParsePrefix("20.0.0.0/8")
	a, err := Option2Address(isp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !isp.Contains(a) {
		t.Errorf("option-2 address %s must lie inside the default ISP block %s", a, isp)
	}
	if AnycastReserved.Contains(a) {
		t.Error("option-2 address should be ordinary unicast, not reserved-block")
	}
	b, _ := Option2Address(isp, 1)
	if a == b {
		t.Error("distinct groups must get distinct addresses")
	}
	if _, err := Option2Address(MustParsePrefix("1.2.3.4/32"), 0); err == nil {
		t.Error("tiny block should be rejected")
	}
}

func TestGIAAddress(t *testing.T) {
	home := MustParsePrefix("131.107.0.0/16")
	a, err := GIAAddress(home, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !GIAIndicator.Contains(a) {
		t.Errorf("%s should carry the GIA indicator", a)
	}
	if group := uint8(a); group != 5 {
		t.Errorf("group = %d, want 5", group)
	}
	wantSite := (uint32(home.Addr) >> 16) & 0x07FF
	if site := (uint32(a) >> 8) & 0x07FF; site != wantSite {
		t.Errorf("site = %d, want %d", site, wantSite)
	}
	if GIAIndicator.Contains(MustParseV4("10.0.0.1")) {
		t.Error("10.0.0.1 should not carry the GIA indicator")
	}
	if _, err := GIAAddress(MustParsePrefix("10.0.0.0/24"), 0); err == nil {
		t.Error("overlong home prefix should be rejected")
	}
}

func TestHostVNPrefix(t *testing.T) {
	v := MustParseVN("00000001:00000002:00000003:00000004")
	p := HostVNPrefix(v)
	if !p.Contains(v) || p.Len != 128 {
		t.Error("host prefix must contain exactly its address")
	}
	w := VN{Hi: v.Hi, Lo: v.Lo + 1}
	if p.Contains(w) {
		t.Error("host prefix must not contain neighbours")
	}
}
