package rib

import (
	"encoding/binary"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
)

// Fuzz targets: the per-length hash tables against a linear-scan oracle.
// Arbitrary bytes are decoded into a route set (with deletions) plus
// probe addresses; for every probe, the table's Lookup must agree with the
// obviously-correct oracle — same hit/miss, same matched prefix, same
// value. Prefixes are canonicalized on decode exactly as MakePrefix
// does, so last-insert-wins semantics line up between table and oracle.

// decode4 splits fuzz input into canonical V4 prefix records. Each
// 5-byte record is (addr:4, len:1); the high bit of the length byte
// flags the record as a deletion of everything decoded so far at that
// prefix.
func decode4(data []byte) (ins []addr.Prefix, del []bool) {
	for len(data) >= 5 {
		a := addr.V4(binary.BigEndian.Uint32(data[:4]))
		l := data[4]
		ins = append(ins, addr.MakePrefix(a, l%33))
		del = append(del, l&0x80 != 0)
		data = data[5:]
	}
	return ins, del
}

func FuzzTable4Lookup(f *testing.F) {
	seed := func(parts ...[]byte) {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		f.Add(b)
	}
	rec := func(a, b, c, d, l byte) []byte { return []byte{a, b, c, d, l} }
	seed(rec(10, 0, 0, 0, 8))
	seed(rec(10, 0, 0, 0, 8), rec(10, 1, 0, 0, 16), rec(10, 1, 2, 0, 24), []byte{10, 1, 2, 3})
	seed(rec(0, 0, 0, 0, 0), rec(255, 255, 255, 255, 32))                 // default route + host route
	seed(rec(10, 0, 0, 0, 8), rec(10, 0, 0, 0, 8|0x80), []byte{10, 9, 9}) // insert then delete
	seed(rec(192, 168, 0, 0, 16), rec(192, 168, 0, 0, 24), rec(192, 168, 0, 0, 16|0x80))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, dels := decode4(data)
		var table Table4[int]
		oracle := map[addr.Prefix]int{}
		for i, p := range recs {
			if dels[i] {
				got := table.Delete(p)
				_, want := oracle[p]
				if got != want {
					t.Fatalf("Delete(%v) = %v, oracle had-entry %v", p, got, want)
				}
				delete(oracle, p)
				continue
			}
			table.Insert(p, i)
			oracle[p] = i
		}
		if table.Len() != len(oracle) {
			t.Fatalf("Len = %d, oracle %d", table.Len(), len(oracle))
		}

		// Probe every inserted prefix's base address, its broadcast end,
		// and the raw tail bytes of the input.
		probes := []addr.V4{0, 0xFFFFFFFF}
		for _, p := range recs {
			probes = append(probes, p.Addr, p.Addr|^p.Mask())
		}
		if rest := len(data) % 5; rest >= 4 {
			probes = append(probes, addr.V4(binary.BigEndian.Uint32(data[len(data)-rest:])))
		}
		for _, a := range probes {
			gotV, gotP, gotOK := table.Lookup(a)
			wantV, wantP, wantOK := 0, addr.Prefix{}, false
			for p, v := range oracle {
				if p.Contains(a) && (!wantOK || p.Len > wantP.Len) {
					wantV, wantP, wantOK = v, p, true
				}
			}
			if gotOK != wantOK {
				t.Fatalf("Lookup(%v) ok=%v, oracle %v", a, gotOK, wantOK)
			}
			if gotOK && (gotV != wantV || gotP != wantP) {
				t.Fatalf("Lookup(%v) = %d via %v, oracle %d via %v", a, gotV, gotP, wantV, wantP)
			}
			// Exact must agree with the oracle map as well.
			if gotOK {
				ev, eok := table.Exact(gotP)
				if !eok || ev != gotV {
					t.Fatalf("Exact(%v) = %d,%v after Lookup returned it", gotP, ev, eok)
				}
			}
			// Matches must enumerate exactly the containing prefixes,
			// longest first, ending at the Lookup winner's chain head.
			var chain []addr.Prefix
			table.Matches(a, func(p addr.Prefix, v int) bool {
				if ov, ok := oracle[p]; !ok || ov != v {
					t.Fatalf("Matches(%v) visited %v=%d, oracle %d (present %v)", a, p, v, ov, ok)
				}
				chain = append(chain, p)
				return true
			})
			wantChain := 0
			for p := range oracle {
				if p.Contains(a) {
					wantChain++
				}
			}
			if len(chain) != wantChain {
				t.Fatalf("Matches(%v) visited %d prefixes, oracle %d", a, len(chain), wantChain)
			}
			for i := 1; i < len(chain); i++ {
				if chain[i-1].Len <= chain[i].Len {
					t.Fatalf("Matches(%v) not longest-first: %v then %v", a, chain[i-1], chain[i])
				}
			}
			if gotOK && (len(chain) == 0 || chain[0] != gotP) {
				t.Fatalf("Matches(%v) head %v, Lookup matched %v", a, chain, gotP)
			}
		}

		// Drain: deleting every surviving route must return the table to
		// its empty baseline — a level goes with its last route, so no
		// insert+delete cycle leaves one behind.
		for p := range oracle {
			if !table.Delete(p) {
				t.Fatalf("drain Delete(%v) missed a live route", p)
			}
		}
		if table.Len() != 0 || table.Levels() != 0 {
			t.Fatalf("after drain: Len=%d Levels=%d, want 0,0", table.Len(), table.Levels())
		}
	})
}

// decodeVN splits fuzz input into canonical VN prefix records: 17-byte
// records of (hi:8, lo:8, len:1), deletion flagged like decode4.
func decodeVN(data []byte) (ins []addr.VNPrefix, del []bool) {
	for len(data) >= 17 {
		v := addr.VN{Hi: binary.BigEndian.Uint64(data[:8]), Lo: binary.BigEndian.Uint64(data[8:16])}
		l := data[16]
		ins = append(ins, addr.MakeVNPrefix(v, l%129))
		del = append(del, l&0x80 != 0)
		data = data[17:]
	}
	return ins, del
}

func FuzzTableVNLookup(f *testing.F) {
	vn := func(hi, lo uint64, l byte) []byte {
		b := make([]byte, 17)
		binary.BigEndian.PutUint64(b[:8], hi)
		binary.BigEndian.PutUint64(b[8:16], lo)
		b[16] = l
		return b
	}
	f.Add(vn(0x0000010000000000, 0, 40))
	f.Add(append(vn(0x0000010000000000, 0, 40), vn(0x0000010000000000, 0, 64)...))
	f.Add(append(vn(1<<63, 7, 128), vn(0, 0, 0)...)) // self-flagged host route + default
	f.Add(append(vn(0x0000020000000000, 0, 40), vn(0x0000020000000000, 0, 40|0x80)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, dels := decodeVN(data)
		var table TableVN[int]
		oracle := map[addr.VNPrefix]int{}
		for i, p := range recs {
			if dels[i] {
				got := table.Delete(p)
				_, want := oracle[p]
				if got != want {
					t.Fatalf("Delete(%v) = %v, oracle had-entry %v", p, got, want)
				}
				delete(oracle, p)
				continue
			}
			table.Insert(p, i)
			oracle[p] = i
		}
		if table.Len() != len(oracle) {
			t.Fatalf("Len = %d, oracle %d", table.Len(), len(oracle))
		}
		var probes []addr.VN
		for _, p := range recs {
			probes = append(probes, p.Addr)
		}
		probes = append(probes, addr.VN{}, addr.VN{Hi: ^uint64(0), Lo: ^uint64(0)})
		for _, a := range probes {
			gotV, gotP, gotOK := table.Lookup(a)
			wantV, wantP, wantOK := 0, addr.VNPrefix{}, false
			for p, v := range oracle {
				if p.Contains(a) && (!wantOK || p.Len > wantP.Len) {
					wantV, wantP, wantOK = v, p, true
				}
			}
			if gotOK != wantOK {
				t.Fatalf("Lookup(%v) ok=%v, oracle %v", a, gotOK, wantOK)
			}
			if gotOK && (gotV != wantV || gotP != wantP) {
				t.Fatalf("Lookup(%v) = %d via %v, oracle %d via %v", a, gotV, gotP, wantV, wantP)
			}
		}

		// Drain to the empty baseline: no level may be left behind.
		for p := range oracle {
			if !table.Delete(p) {
				t.Fatalf("drain Delete(%v) missed a live route", p)
			}
		}
		if table.Len() != 0 || table.Levels() != 0 {
			t.Fatalf("after drain: Len=%d Levels=%d, want 0,0", table.Len(), table.Levels())
		}
	})
}
