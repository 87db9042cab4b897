package rib

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/evolvable-net/evolve/internal/addr"
)

func TestTable4LongestMatch(t *testing.T) {
	var tbl Table4[string]
	tbl.Insert(addr.MustParsePrefix("0.0.0.0/0"), "default")
	tbl.Insert(addr.MustParsePrefix("10.0.0.0/8"), "ten")
	tbl.Insert(addr.MustParsePrefix("10.1.0.0/16"), "ten-one")
	tbl.Insert(addr.MustParsePrefix("10.1.2.3/32"), "host")

	cases := []struct {
		a    string
		want string
	}{
		{"11.0.0.1", "default"},
		{"10.9.9.9", "ten"},
		{"10.1.9.9", "ten-one"},
		{"10.1.2.3", "host"},
	}
	for _, c := range cases {
		v, p, ok := tbl.Lookup(addr.MustParseV4(c.a))
		if !ok || v != c.want {
			t.Errorf("Lookup(%s) = %q (prefix %s), want %q", c.a, v, p, c.want)
		}
	}
}

func TestTable4NoMatch(t *testing.T) {
	var tbl Table4[int]
	tbl.Insert(addr.MustParsePrefix("10.0.0.0/8"), 1)
	if _, _, ok := tbl.Lookup(addr.MustParseV4("11.0.0.1")); ok {
		t.Error("lookup outside all prefixes should fail")
	}
	var empty Table4[int]
	if _, _, ok := empty.Lookup(0); ok {
		t.Error("empty table lookup should fail")
	}
}

func TestTable4InsertReplaces(t *testing.T) {
	var tbl Table4[int]
	p := addr.MustParsePrefix("10.0.0.0/8")
	tbl.Insert(p, 1)
	tbl.Insert(p, 2)
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	v, _, _ := tbl.Lookup(addr.MustParseV4("10.0.0.1"))
	if v != 2 {
		t.Errorf("value = %d", v)
	}
}

func TestTable4Delete(t *testing.T) {
	var tbl Table4[int]
	outer := addr.MustParsePrefix("10.0.0.0/8")
	inner := addr.MustParsePrefix("10.1.0.0/16")
	tbl.Insert(outer, 1)
	tbl.Insert(inner, 2)
	if !tbl.Delete(inner) {
		t.Fatal("delete existing failed")
	}
	if tbl.Delete(inner) {
		t.Error("double delete succeeded")
	}
	v, _, ok := tbl.Lookup(addr.MustParseV4("10.1.0.1"))
	if !ok || v != 1 {
		t.Errorf("after delete, lookup = %d, %v (want fall back to outer)", v, ok)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestTable4Exact(t *testing.T) {
	var tbl Table4[int]
	tbl.Insert(addr.MustParsePrefix("10.0.0.0/8"), 1)
	if _, ok := tbl.Exact(addr.MustParsePrefix("10.0.0.0/9")); ok {
		t.Error("exact on absent length matched")
	}
	if v, ok := tbl.Exact(addr.MustParsePrefix("10.0.0.0/8")); !ok || v != 1 {
		t.Error("exact on present prefix failed")
	}
}

func TestTable4DefaultRouteOnly(t *testing.T) {
	var tbl Table4[string]
	tbl.Insert(addr.MustParsePrefix("0.0.0.0/0"), "d")
	v, p, ok := tbl.Lookup(addr.MustParseV4("1.2.3.4"))
	if !ok || v != "d" || p.Len != 0 {
		t.Errorf("default route lookup = %q %s %v", v, p, ok)
	}
}

func TestTable4Walk(t *testing.T) {
	var tbl Table4[int]
	prefixes := []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24"}
	for i, s := range prefixes {
		tbl.Insert(addr.MustParsePrefix(s), i)
	}
	seen := map[string]int{}
	tbl.Walk(func(p addr.Prefix, v int) bool {
		seen[p.String()] = v
		return true
	})
	if len(seen) != len(prefixes) {
		t.Fatalf("walk visited %d entries: %v", len(seen), seen)
	}
	for i, s := range prefixes {
		want := addr.MustParsePrefix(s).String()
		if seen[want] != i {
			t.Errorf("walk[%s] = %d, want %d", want, seen[want], i)
		}
	}
	// Early stop.
	n := 0
	tbl.Walk(func(addr.Prefix, int) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

// TestTableVNWalk is TestTable4Walk's twin over random IPvN tables: Walk
// visits every route once with its value, ordered by (Addr, Len) — the
// order BGP's convergeAllLocked relies on — and stops early.
func TestTableVNWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		var tbl TableVN[int]
		want := map[addr.VNPrefix]int{}
		for i := 0; i < 60; i++ {
			// Few distinct high words, so prefixes nest and share
			// addresses at different lengths.
			a := addr.VN{Hi: uint64(rng.Intn(4)) << 60, Lo: rng.Uint64()}
			p := addr.MakeVNPrefix(a, uint8(rng.Intn(129)))
			tbl.Insert(p, i)
			want[p] = i
		}
		var seen []addr.VNPrefix
		tbl.Walk(func(p addr.VNPrefix, v int) bool {
			if w, ok := want[p]; !ok || w != v {
				t.Fatalf("walk visited %v=%d, want %d (present %v)", p, v, w, ok)
			}
			seen = append(seen, p)
			return true
		})
		if len(seen) != len(want) {
			t.Fatalf("walk visited %d routes, table has %d", len(seen), len(want))
		}
		for i := 1; i < len(seen); i++ {
			a, b := seen[i-1], seen[i]
			inOrder := a.Addr.Hi < b.Addr.Hi ||
				a.Addr.Hi == b.Addr.Hi && (a.Addr.Lo < b.Addr.Lo || a.Addr.Lo == b.Addr.Lo && a.Len < b.Len)
			if !inOrder {
				t.Fatalf("walk not in (Addr, Len) order: %v then %v", a, b)
			}
		}
		n := 0
		tbl.Walk(func(addr.VNPrefix, int) bool { n++; return false })
		if n != 1 {
			t.Errorf("early stop visited %d", n)
		}
	}
}

// TestLookupAllocatesNothing: a lookup, a match chain and an exact probe
// on either table allocate nothing, hit or miss.
func TestLookupAllocatesNothing(t *testing.T) {
	var t4 Table4[int]
	t4.Insert(addr.MustParsePrefix("10.0.0.0/8"), 1)
	t4.Insert(addr.MustParsePrefix("10.1.0.0/16"), 2)
	var tvn TableVN[int]
	host := addr.NativeVN(7, 3)
	tvn.Insert(addr.DomainVNPrefix(7), 1)
	tvn.Insert(addr.HostVNPrefix(host), 2)
	a, miss := addr.MustParseV4("10.1.2.3"), addr.MustParseV4("11.0.0.1")
	p16, p24 := addr.MustParsePrefix("10.1.0.0/16"), addr.MustParsePrefix("10.1.0.0/24")
	n := 0
	count := func(addr.Prefix, int) bool { n++; return true }
	countVN := func(addr.VNPrefix, int) bool { n++; return true }
	ops := map[string]func(){
		"Table4.Lookup":   func() { t4.Lookup(a); t4.Lookup(miss) },
		"Table4.Matches":  func() { t4.Matches(a, count) },
		"Table4.Exact":    func() { t4.Exact(p16); t4.Exact(p24) },
		"TableVN.Lookup":  func() { tvn.Lookup(host); tvn.Lookup(addr.NativeVN(8, 0)) },
		"TableVN.Matches": func() { tvn.Matches(host, countVN) },
		"TableVN.Exact":   func() { tvn.Exact(addr.HostVNPrefix(host)); tvn.Exact(addr.DomainVNPrefix(8)) },
	}
	for name, op := range ops {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, allocs)
		}
	}
	if n == 0 {
		t.Error("Matches visited nothing")
	}
}

// linearTable is a brute-force longest-prefix-match oracle.
type linearTable struct {
	entries []struct {
		p addr.Prefix
		v int
	}
}

func (l *linearTable) insert(p addr.Prefix, v int) {
	for i := range l.entries {
		if l.entries[i].p == p {
			l.entries[i].v = v
			return
		}
	}
	l.entries = append(l.entries, struct {
		p addr.Prefix
		v int
	}{p, v})
}

func (l *linearTable) lookup(a addr.V4) (int, bool) {
	best := -1
	bestLen := -1
	for _, e := range l.entries {
		if e.p.Contains(a) && int(e.p.Len) > bestLen {
			best, bestLen = e.v, int(e.p.Len)
		}
	}
	return best, bestLen >= 0
}

func TestTable4MatchesLinearOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tbl Table4[int]
		var oracle linearTable
		for i := 0; i < 40; i++ {
			p := addr.MakePrefix(addr.V4(rng.Uint32()), uint8(rng.Intn(33)))
			tbl.Insert(p, i)
			oracle.insert(p, i)
		}
		for i := 0; i < 200; i++ {
			a := addr.V4(rng.Uint32())
			got, gotOK, _ := func() (int, bool, addr.Prefix) {
				v, p, ok := tbl.Lookup(a)
				return v, ok, p
			}()
			want, wantOK := oracle.lookup(a)
			if gotOK != wantOK || (gotOK && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTableVNLongestMatch(t *testing.T) {
	var tbl TableVN[string]
	d7 := addr.DomainVNPrefix(7)
	d8 := addr.DomainVNPrefix(8)
	tbl.Insert(d7, "seven")
	tbl.Insert(d8, "eight")
	host := addr.VN{Hi: d7.Addr.Hi, Lo: 42}
	tbl.Insert(addr.HostVNPrefix(host), "host")

	if v, _, ok := tbl.Lookup(host); !ok || v != "host" {
		t.Errorf("host lookup = %q %v", v, ok)
	}
	other := addr.VN{Hi: d7.Addr.Hi, Lo: 43}
	if v, _, ok := tbl.Lookup(other); !ok || v != "seven" {
		t.Errorf("domain lookup = %q %v", v, ok)
	}
	if v, _, ok := tbl.Lookup(addr.VN{Hi: d8.Addr.Hi, Lo: 1}); !ok || v != "eight" {
		t.Errorf("other-domain lookup = %q %v", v, ok)
	}
	if _, _, ok := tbl.Lookup(addr.SelfAddress(1)); ok {
		t.Error("self address should not match native prefixes")
	}
}

func TestTableVNSelfPrefix(t *testing.T) {
	// A /1 on the self-flag bit catches every self-address: this is how an
	// egress policy can route "all temporary addresses" specially.
	var tbl TableVN[string]
	selfAll := addr.MakeVNPrefix(addr.SelfAddress(0), 1)
	tbl.Insert(selfAll, "self")
	if v, _, ok := tbl.Lookup(addr.SelfAddress(addr.MustParseV4("10.0.0.1"))); !ok || v != "self" {
		t.Errorf("self catch-all = %q %v", v, ok)
	}
	if _, _, ok := tbl.Lookup(addr.VN{Hi: 1}); ok {
		t.Error("native address matched self catch-all")
	}
}

func TestTableVNDeleteAndWalk(t *testing.T) {
	var tbl TableVN[int]
	for asn := 1; asn <= 10; asn++ {
		tbl.Insert(addr.DomainVNPrefix(asn), asn)
	}
	if tbl.Len() != 10 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if !tbl.Delete(addr.DomainVNPrefix(5)) {
		t.Fatal("delete failed")
	}
	sum := 0
	tbl.Walk(func(_ addr.VNPrefix, v int) bool { sum += v; return true })
	if sum != 55-5 {
		t.Errorf("walk sum = %d", sum)
	}
	if _, _, ok := tbl.Lookup(addr.VN{Hi: addr.DomainVNPrefix(5).Addr.Hi, Lo: 9}); ok {
		t.Error("deleted prefix still matches")
	}
}

func TestTableVNExactBitBoundary(t *testing.T) {
	// Exercise prefixes straddling the 64-bit boundary of the key.
	var tbl TableVN[int]
	p := addr.MakeVNPrefix(addr.VN{Hi: 0xDEADBEEF, Lo: 0xF000000000000000}, 68)
	tbl.Insert(p, 1)
	if v, ok := tbl.Exact(p); !ok || v != 1 {
		t.Error("exact at 68 bits failed")
	}
	inside := addr.VN{Hi: 0xDEADBEEF, Lo: 0xF800000000000000}
	if v, _, ok := tbl.Lookup(inside); !ok || v != 1 {
		t.Error("lookup inside 68-bit prefix failed")
	}
	outside := addr.VN{Hi: 0xDEADBEEF, Lo: 0x0800000000000000}
	if _, _, ok := tbl.Lookup(outside); ok {
		t.Error("lookup outside 68-bit prefix matched")
	}
}

func TestTable4PruneOnDelete(t *testing.T) {
	var tbl Table4[int]
	if tbl.Levels() != 0 {
		t.Fatalf("empty Levels = %d", tbl.Levels())
	}
	outer := addr.MustParsePrefix("10.0.0.0/8")
	inner := addr.MustParsePrefix("10.1.2.0/24")
	twin := addr.MustParsePrefix("10.1.3.0/24")
	tbl.Insert(outer, 1)
	tbl.Insert(inner, 2)
	tbl.Insert(twin, 3)
	if tbl.Levels() != 2 {
		t.Fatalf("Levels = %d after a /8 and two /24s, want 2", tbl.Levels())
	}
	// A level stays while it holds a route and goes with its last one.
	if !tbl.Delete(twin) {
		t.Fatal("delete failed")
	}
	if tbl.Levels() != 2 {
		t.Fatalf("Levels = %d with one /24 left, want 2", tbl.Levels())
	}
	if !tbl.Delete(inner) {
		t.Fatal("delete failed")
	}
	if tbl.Levels() != 1 {
		t.Fatalf("Levels = %d after deleting the last /24, want 1", tbl.Levels())
	}
	// Deleting the /8 empties the table completely.
	if !tbl.Delete(outer) {
		t.Fatal("delete failed")
	}
	if tbl.Levels() != 0 || tbl.Len() != 0 {
		t.Fatalf("Levels = %d, Len = %d after full drain", tbl.Levels(), tbl.Len())
	}
	// A more specific route must survive the deletion of its aggregate.
	tbl.Insert(outer, 1)
	tbl.Insert(inner, 2)
	tbl.Delete(outer)
	if _, ok := tbl.Exact(inner); !ok {
		t.Fatal("descendant lost when ancestor deleted")
	}
}

func TestTable4ChurnMemoryBounded(t *testing.T) {
	// Sustained insert/delete churn must leave no level behind: a table
	// drained of its routes is back to zero levels.
	rng := rand.New(rand.NewSource(42))
	var tbl Table4[int]
	resident := make([]addr.Prefix, 0, 256)
	for i := 0; i < 256; i++ {
		p := addr.MakePrefix(addr.V4(rng.Uint32()), uint8(8+rng.Intn(25)))
		tbl.Insert(p, i)
		resident = append(resident, p)
	}
	for cycle := 0; cycle < 50; cycle++ {
		var churn []addr.Prefix
		for i := 0; i < 512; i++ {
			p := addr.MakePrefix(addr.V4(rng.Uint32()), uint8(16+rng.Intn(17)))
			tbl.Insert(p, i)
			churn = append(churn, p)
		}
		for _, p := range churn {
			tbl.Delete(p)
		}
	}
	for _, p := range resident {
		tbl.Delete(p)
	}
	if tbl.Levels() != 0 || tbl.Len() != 0 {
		t.Fatalf("Levels = %d, Len = %d after churn drain, want 0, 0", tbl.Levels(), tbl.Len())
	}
}

func TestTable4Matches(t *testing.T) {
	var tbl Table4[string]
	tbl.Insert(addr.MustParsePrefix("0.0.0.0/0"), "default")
	tbl.Insert(addr.MustParsePrefix("10.0.0.0/8"), "ten")
	tbl.Insert(addr.MustParsePrefix("10.1.0.0/16"), "ten-one")
	tbl.Insert(addr.MustParsePrefix("192.168.0.0/16"), "private")

	var got []string
	tbl.Matches(addr.MustParseV4("10.1.2.3"), func(_ addr.Prefix, v string) bool {
		got = append(got, v)
		return true
	})
	want := []string{"ten-one", "ten", "default"}
	if len(got) != len(want) {
		t.Fatalf("Matches chain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Matches chain = %v, want %v", got, want)
		}
	}
	// Early stop after the longest match.
	n := 0
	tbl.Matches(addr.MustParseV4("10.1.2.3"), func(addr.Prefix, string) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestTableVNPruneOnDelete(t *testing.T) {
	var tbl TableVN[int]
	for asn := 1; asn <= 100; asn++ {
		tbl.Insert(addr.DomainVNPrefix(asn), asn)
	}
	for asn := 1; asn <= 100; asn++ {
		if !tbl.Delete(addr.DomainVNPrefix(asn)) {
			t.Fatalf("delete asn %d failed", asn)
		}
	}
	if tbl.Levels() != 0 || tbl.Len() != 0 {
		t.Fatalf("Levels = %d, Len = %d after full drain", tbl.Levels(), tbl.Len())
	}
}

// BenchmarkTable4Lookup times Lookup on two shapes: one_length is BGP's
// origination index at cold_start (a /16 per domain, 4 000 domains, every
// address inside one), the shape every table of the bench's worlds has;
// 25_lengths is 10 000 random prefixes over 25 lengths, the worst case a
// table of levels pays.
func BenchmarkTable4Lookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var spread, oneLen Table4[int]
	for i := 0; i < 10000; i++ {
		spread.Insert(addr.MakePrefix(addr.V4(rng.Uint32()), uint8(8+rng.Intn(25))), i)
	}
	spreadAddrs := make([]addr.V4, 1024)
	for i := range spreadAddrs {
		spreadAddrs[i] = addr.V4(rng.Uint32())
	}
	const domains = 4000
	for d := 1; d <= domains; d++ {
		oneLen.Insert(addr.MakePrefix(addr.V4(d<<16), 16), d)
	}
	oneLenAddrs := make([]addr.V4, 1024)
	for i := range oneLenAddrs {
		oneLenAddrs[i] = addr.V4((1+rng.Intn(domains))<<16 | rng.Intn(1<<16))
	}
	for _, c := range []struct {
		name  string
		tbl   *Table4[int]
		addrs []addr.V4
	}{
		{"one_length", &oneLen, oneLenAddrs},
		{"25_lengths", &spread, spreadAddrs},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.tbl.Lookup(c.addrs[i%len(c.addrs)])
			}
		})
	}
}

func BenchmarkTableVNLookup(b *testing.B) {
	var tbl TableVN[int]
	for asn := 0; asn < 10000; asn++ {
		tbl.Insert(addr.DomainVNPrefix(asn), asn)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(addr.VN{Hi: addr.DomainVNPrefix(i % 10000).Addr.Hi, Lo: 7})
	}
}
