// Package rib implements longest-prefix-match routing tables for both the
// 32-bit underlay address space and the 128-bit IPvN space. These are the
// FIB/RIB structures used by every router in the simulator and by the
// live overlay prototype.
//
// A table is a list of levels, longest prefix length first. A level is one
// hash map holding every route of one length, keyed by its masked address.
// Lookup probes the levels in order and stops at the first hit, so it costs
// one hash probe per distinct prefix length present, whatever the address
// width. Insert, Delete and Exact are one map operation each. The tables
// the system builds hold few lengths: a live overlay member holds /128s
// only, bgpvn's native table /40s, and BGP's origination index a /16 per
// domain plus a /32 per option-1 anycast address. There a lookup is one or
// two probes, where a bit-per-node trie walked one node per address bit
// (128 for a live member's host route): over BGP's index at cold_start
// (BenchmarkTable4Lookup/one_length) a lookup takes ≈ 29 ns. A table
// spread over many lengths pays for each of them: over 25 random lengths
// (/25_lengths) ≈ 1.1 µs, against ≈ 0.1 µs for that trie (2-vCPU Xeon).
package rib

import (
	"cmp"
	"slices"

	"github.com/evolvable-net/evolve/internal/addr"
)

// level holds every route of one prefix length, keyed by its masked
// address. A table holds no empty level.
type level[K comparable, V any] struct {
	len    uint8
	routes map[K]V
}

// levels is a table's routes by prefix length, longest first.
type levels[K comparable, V any] []level[K, V]

// find returns the index of the level of length l, or the index a new one
// would take, and whether it exists.
func (ls levels[K, V]) find(l uint8) (int, bool) {
	for i := range ls {
		if ls[i].len <= l {
			return i, ls[i].len == l
		}
	}
	return len(ls), false
}

func (ls *levels[K, V]) insert(l uint8, k K, v V) {
	i, ok := ls.find(l)
	if !ok {
		*ls = slices.Insert(*ls, i, level[K, V]{len: l, routes: map[K]V{}})
	}
	(*ls)[i].routes[k] = v
}

// remove deletes the route at exactly (k, l) and drops its level when it
// was the last there, so churn leaves no level its live routes do not use.
func (ls *levels[K, V]) remove(l uint8, k K) bool {
	i, ok := ls.find(l)
	if !ok {
		return false
	}
	routes := (*ls)[i].routes
	if _, ok := routes[k]; !ok {
		return false
	}
	delete(routes, k)
	if len(routes) == 0 {
		*ls = slices.Delete(*ls, i, i+1)
	}
	return true
}

func (ls levels[K, V]) exact(l uint8, k K) (v V, ok bool) {
	if i, found := ls.find(l); found {
		v, ok = ls[i].routes[k]
	}
	return v, ok
}

// walk visits every route ordered by (masked address, length): the
// pre-order of a binary trie over the prefixes' bits, a prefix before the
// prefixes it contains. fn sees the routes as they were when walk began.
func (ls levels[K, V]) walk(cmpKey func(K, K) int, fn func(K, uint8, V) bool) {
	type route struct {
		k K
		l uint8
		v V
	}
	var rs []route
	for _, lv := range ls {
		for k, v := range lv.routes {
			rs = append(rs, route{k, lv.len, v})
		}
	}
	slices.SortFunc(rs, func(a, b route) int {
		if c := cmpKey(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.l, b.l)
	})
	for _, r := range rs {
		if !fn(r.k, r.l, r.v) {
			return
		}
	}
}

// Table4 is a longest-prefix-match table over the underlay address space.
// The zero value is an empty table ready to use.
type Table4[V any] struct {
	ls levels[addr.V4, V]
}

// Insert adds or replaces the route for prefix p.
func (t *Table4[V]) Insert(p addr.Prefix, v V) {
	p = addr.MakePrefix(p.Addr, p.Len)
	t.ls.insert(p.Len, p.Addr, v)
}

// Delete removes the route for exactly p, reporting whether it existed.
func (t *Table4[V]) Delete(p addr.Prefix) bool {
	p = addr.MakePrefix(p.Addr, p.Len)
	return t.ls.remove(p.Len, p.Addr)
}

// Lookup returns the value of the longest prefix containing a.
func (t *Table4[V]) Lookup(a addr.V4) (V, addr.Prefix, bool) {
	for _, lv := range t.ls {
		p := addr.MakePrefix(a, lv.len)
		if v, ok := lv.routes[p.Addr]; ok {
			return v, p, true
		}
	}
	var zero V
	return zero, addr.Prefix{}, false
}

// Exact returns the value stored for exactly p.
func (t *Table4[V]) Exact(p addr.Prefix) (V, bool) {
	p = addr.MakePrefix(p.Addr, p.Len)
	return t.ls.exact(p.Len, p.Addr)
}

// Matches visits every stored prefix containing a, longest first —
// the whole LPM chain rather than only the best match. Returning false
// from fn stops the walk early.
func (t *Table4[V]) Matches(a addr.V4, fn func(addr.Prefix, V) bool) {
	for _, lv := range t.ls {
		p := addr.MakePrefix(a, lv.len)
		if v, ok := lv.routes[p.Addr]; ok && !fn(p, v) {
			return
		}
	}
}

// Walk visits every route ordered by (Addr, Len); returning false from fn
// stops the walk early.
func (t *Table4[V]) Walk(fn func(addr.Prefix, V) bool) {
	t.ls.walk(cmp.Compare[addr.V4], func(a addr.V4, l uint8, v V) bool {
		return fn(addr.Prefix{Addr: a, Len: l}, v)
	})
}

// TableVN is a longest-prefix-match table over the IPvN address space.
// The zero value is an empty table ready to use.
type TableVN[V any] struct {
	ls levels[addr.VN, V]
}

// Insert adds or replaces the route for prefix p.
func (t *TableVN[V]) Insert(p addr.VNPrefix, v V) {
	p = addr.MakeVNPrefix(p.Addr, p.Len)
	t.ls.insert(p.Len, p.Addr, v)
}

// Delete removes the route for exactly p, reporting whether it existed.
func (t *TableVN[V]) Delete(p addr.VNPrefix) bool {
	p = addr.MakeVNPrefix(p.Addr, p.Len)
	return t.ls.remove(p.Len, p.Addr)
}

// Lookup returns the value of the longest prefix containing a.
func (t *TableVN[V]) Lookup(a addr.VN) (V, addr.VNPrefix, bool) {
	for _, lv := range t.ls {
		p := addr.MakeVNPrefix(a, lv.len)
		if v, ok := lv.routes[p.Addr]; ok {
			return v, p, true
		}
	}
	var zero V
	return zero, addr.VNPrefix{}, false
}
