package addr

import (
	"testing"
	"testing/quick"
)

func TestV4RoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.0.0.1", "192.168.1.255", "255.255.255.255", "1.2.3.4"}
	for _, s := range cases {
		a, err := ParseV4(s)
		if err != nil {
			t.Fatalf("ParseV4(%q): %v", s, err)
		}
		if got := a.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestV4ParseErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3"} {
		if _, err := ParseV4(s); err == nil {
			t.Errorf("ParseV4(%q) unexpectedly succeeded", s)
		}
	}
}

func TestV4Octets(t *testing.T) {
	a := V4FromOctets(10, 20, 30, 40)
	o1, o2, o3, o4 := a.Octets()
	if o1 != 10 || o2 != 20 || o3 != 30 || o4 != 40 {
		t.Errorf("Octets = %d.%d.%d.%d", o1, o2, o3, o4)
	}
}

func TestV4StringParseProperty(t *testing.T) {
	f := func(x uint32) bool {
		a := V4(x)
		back, err := ParseV4(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(MustParseV4("10.1.2.3")) {
		t.Error("10.1.0.0/16 should contain 10.1.2.3")
	}
	if p.Contains(MustParseV4("10.2.0.0")) {
		t.Error("10.1.0.0/16 should not contain 10.2.0.0")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseV4("255.255.255.255")) {
		t.Error("default prefix should contain everything")
	}
}

func TestPrefixCanonicalised(t *testing.T) {
	p := MakePrefix(MustParseV4("10.1.2.3"), 16)
	if p.Addr != MustParseV4("10.1.0.0") {
		t.Errorf("MakePrefix did not mask: %s", p)
	}
	q := MustParsePrefix("10.1.2.3/16")
	if q != p {
		t.Errorf("ParsePrefix did not canonicalise: %s vs %s", q, p)
	}
}

func TestPrefixContainsPrefixAndOverlaps(t *testing.T) {
	outer := MustParsePrefix("10.0.0.0/8")
	inner := MustParsePrefix("10.5.0.0/16")
	other := MustParsePrefix("11.0.0.0/8")
	if !outer.ContainsPrefix(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsPrefix(outer) {
		t.Error("inner should not contain outer")
	}
	if outer.ContainsPrefix(other) || other.ContainsPrefix(outer) {
		t.Error("disjoint prefixes should not overlap")
	}
}

func TestPrefixSize(t *testing.T) {
	if got := MustParsePrefix("10.0.0.0/8").Size(); got != 1<<24 {
		t.Errorf("/8 size = %d", got)
	}
	if got := HostPrefix(MustParseV4("1.2.3.4")).Size(); got != 1 {
		t.Errorf("/32 size = %d", got)
	}
	if got := MustParsePrefix("0.0.0.0/0").Size(); got != 1<<32 {
		t.Errorf("/0 size = %d", got)
	}
}

func TestSubnet(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	s0, err := p.Subnet(16, 0)
	if err != nil || s0 != MustParsePrefix("10.0.0.0/16") {
		t.Errorf("subnet 0: %v %v", s0, err)
	}
	s5, err := p.Subnet(16, 5)
	if err != nil || s5 != MustParsePrefix("10.5.0.0/16") {
		t.Errorf("subnet 5: %v %v", s5, err)
	}
	if _, err := p.Subnet(16, 256); err == nil {
		t.Error("subnet index out of range should fail")
	}
	if _, err := p.Subnet(4, 0); err == nil {
		t.Error("shorter subnet length should fail")
	}
}

func TestSubnetsDisjointProperty(t *testing.T) {
	p := MustParsePrefix("172.16.0.0/12")
	f := func(i, j uint8) bool {
		a, err1 := p.Subnet(20, uint32(i))
		b, err2 := p.Subnet(20, uint32(j))
		if err1 != nil || err2 != nil {
			return true // out of range: vacuously fine
		}
		if i == j {
			return a == b
		}
		return !a.ContainsPrefix(b) && !b.ContainsPrefix(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPool(t *testing.T) {
	pl := NewPool(MustParsePrefix("10.0.0.0/30"))
	want := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"}
	for _, w := range want {
		a, err := pl.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if a.String() != w {
			t.Errorf("Next = %s, want %s", a, w)
		}
	}
	if _, err := pl.Next(); err != ErrPrefixExhausted {
		t.Errorf("expected exhaustion, got %v", err)
	}
}

func TestPoolAddressesInsidePrefix(t *testing.T) {
	p := MustParsePrefix("192.168.4.0/24")
	pl := NewPool(p)
	seen := map[V4]bool{}
	for {
		a, err := pl.Next()
		if err != nil {
			break
		}
		if !p.Contains(a) {
			t.Fatalf("allocated %s outside %s", a, p)
		}
		if seen[a] {
			t.Fatalf("duplicate allocation %s", a)
		}
		seen[a] = true
	}
	if len(seen) != 255 {
		t.Errorf("allocated %d addresses from /24, want 255", len(seen))
	}
}
