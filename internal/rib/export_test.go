package rib

import (
	"cmp"

	"github.com/evolvable-net/evolve/internal/addr"
)

func (ls levels[K, V]) size() int {
	n := 0
	for _, lv := range ls {
		n += len(lv.routes)
	}
	return n
}

// Len returns the number of routes.
func (t *Table4[V]) Len() int { return t.ls.size() }

// Levels returns the number of prefix lengths the table holds routes of —
// the memory footprint oracle. Deleting every route returns it to zero.
func (t *Table4[V]) Levels() int { return len(t.ls) }

// Exact returns the value stored for exactly p.
func (t *TableVN[V]) Exact(p addr.VNPrefix) (V, bool) {
	p = addr.MakeVNPrefix(p.Addr, p.Len)
	return t.ls.exact(p.Len, p.Addr)
}

// Len returns the number of routes.
func (t *TableVN[V]) Len() int { return t.ls.size() }

// Levels returns the number of prefix lengths the table holds routes of —
// the memory footprint oracle. Deleting every route returns it to zero.
func (t *TableVN[V]) Levels() int { return len(t.ls) }

// Matches visits every stored prefix containing a, longest first —
// the whole LPM chain rather than only the best match. Returning false
// from fn stops the walk early.
func (t *TableVN[V]) Matches(a addr.VN, fn func(addr.VNPrefix, V) bool) {
	for _, lv := range t.ls {
		p := addr.MakeVNPrefix(a, lv.len)
		if v, ok := lv.routes[p.Addr]; ok && !fn(p, v) {
			return
		}
	}
}

// Walk visits every route ordered by (Addr, Len); returning false from fn
// stops the walk early.
func (t *TableVN[V]) Walk(fn func(addr.VNPrefix, V) bool) {
	cmpVN := func(a, b addr.VN) int {
		if c := cmp.Compare(a.Hi, b.Hi); c != 0 {
			return c
		}
		return cmp.Compare(a.Lo, b.Lo)
	}
	t.ls.walk(cmpVN, func(a addr.VN, l uint8, v V) bool {
		return fn(addr.VNPrefix{Addr: a, Len: l}, v)
	})
}
