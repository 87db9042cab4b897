package rib

import "github.com/evolvable-net/evolve/internal/addr"

// Len returns the number of routes.
func (t *Table4[V]) Len() int { return t.t.size }

// NodeCount returns the number of allocated trie nodes — the memory
// footprint oracle. Deleting every route returns it to zero.
func (t *Table4[V]) NodeCount() int { return t.t.nodes }

// Exact returns the value stored for exactly p.
func (t *TableVN[V]) Exact(p addr.VNPrefix) (V, bool) { return t.t.exact(keyVN(p)) }

// Len returns the number of routes.
func (t *TableVN[V]) Len() int { return t.t.size }

// NodeCount returns the number of allocated trie nodes — the memory
// footprint oracle. Deleting every route returns it to zero.
func (t *TableVN[V]) NodeCount() int { return t.t.nodes }

// Matches visits every stored prefix containing a, longest first —
// the whole LPM chain rather than only the best match. Returning false
// from fn stops the walk early.
func (t *TableVN[V]) Matches(a addr.VN, fn func(addr.VNPrefix, V) bool) {
	t.t.matches(key{hi: a.Hi, lo: a.Lo, length: 128}, func(k key, v V) bool {
		return fn(addr.VNPrefix{Addr: addr.VN{Hi: k.hi, Lo: k.lo}, Len: k.length}, v)
	})
}

// Walk visits every route in bit order; returning false from fn stops the
// walk early.
func (t *TableVN[V]) Walk(fn func(addr.VNPrefix, V) bool) {
	t.t.walk(t.t.root, key{}, func(k key, v V) bool {
		return fn(addr.VNPrefix{Addr: addr.VN{Hi: k.hi, Lo: k.lo}, Len: k.length}, v)
	})
}
