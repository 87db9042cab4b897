// Package rib implements longest-prefix-match routing tables as binary
// tries, for both the 32-bit underlay address space and the 128-bit IPvN
// space. These are the FIB/RIB structures used by every router in the
// simulator and by the live overlay prototype.
package rib

import (
	"github.com/evolvable-net/evolve/internal/addr"
)

// key is a left-aligned 128-bit bit string with a length. V4 prefixes are
// mapped into the top 32 bits.
type key struct {
	hi, lo uint64
	length uint8
}

func (k key) bit(i uint8) byte {
	if i < 64 {
		return byte(k.hi >> (63 - i) & 1)
	}
	return byte(k.lo >> (127 - i) & 1)
}

// prefix returns the first l bits of k as a key of length l.
func (k key) prefix(l uint8) key {
	p := key{length: l}
	switch {
	case l == 0:
	case l < 64:
		p.hi = k.hi &^ (1<<(64-l) - 1)
	case l == 64:
		p.hi = k.hi
	case l < 128:
		p.hi, p.lo = k.hi, k.lo&^(1<<(128-l)-1)
	default:
		p.hi, p.lo = k.hi, k.lo
	}
	return p
}

type node[V any] struct {
	child [2]*node[V]
	val   V
	set   bool
}

type trie[V any] struct {
	root  *node[V]
	size  int
	nodes int
}

func (t *trie[V]) insert(k key, v V) {
	if t.root == nil {
		t.root = &node[V]{}
		t.nodes++
	}
	n := t.root
	for i := uint8(0); i < k.length; i++ {
		b := k.bit(i)
		if n.child[b] == nil {
			n.child[b] = &node[V]{}
			t.nodes++
		}
		n = n.child[b]
	}
	if !n.set {
		t.size++
	}
	n.val, n.set = v, true
}

// remove deletes the route at exactly k and prunes any interior nodes
// left with no value and no children, so sustained insert/delete churn
// keeps the trie at the size of its live routes.
func (t *trie[V]) remove(k key) bool {
	if t.root == nil {
		return false
	}
	// path[i] is the node at depth i; path[k.length] is the target.
	path := make([]*node[V], k.length+1)
	path[0] = t.root
	for i := uint8(0); i < k.length; i++ {
		path[i+1] = path[i].child[k.bit(i)]
		if path[i+1] == nil {
			return false
		}
	}
	n := path[k.length]
	if !n.set {
		return false
	}
	var zero V
	n.val, n.set = zero, false
	t.size--
	for d := int(k.length); d >= 0; d-- {
		n := path[d]
		if n.set || n.child[0] != nil || n.child[1] != nil {
			break
		}
		t.nodes--
		if d == 0 {
			t.root = nil
		} else {
			path[d-1].child[k.bit(uint8(d-1))] = nil
		}
	}
	return true
}

// matches collects every set prefix along the key's bits, longest first —
// the full LPM chain rather than only the single best match.
func (t *trie[V]) matches(k key, fn func(key, V) bool) {
	n := t.root
	if n == nil {
		return
	}
	type hit struct {
		k key
		n *node[V]
	}
	// Chains are short (an aggregate, a host route); eight stay on the
	// stack, so a walk allocates nothing.
	hits := make([]hit, 0, 8)
	if n.set {
		hits = append(hits, hit{key{}, n})
	}
	for depth := uint8(0); depth < k.length; depth++ {
		n = n.child[k.bit(depth)]
		if n == nil {
			break
		}
		if n.set {
			hits = append(hits, hit{k.prefix(depth + 1), n})
		}
	}
	for i := len(hits) - 1; i >= 0; i-- {
		if !fn(hits[i].k, hits[i].n.val) {
			return
		}
	}
}

// lookup returns the value of the longest set prefix along the key's bits,
// plus the matched length.
func (t *trie[V]) lookup(k key) (v V, matched uint8, ok bool) {
	n := t.root
	if n == nil {
		return v, 0, false
	}
	depth := uint8(0)
	if n.set {
		v, matched, ok = n.val, 0, true
	}
	for depth < k.length {
		n = n.child[k.bit(depth)]
		if n == nil {
			break
		}
		depth++
		if n.set {
			v, matched, ok = n.val, depth, true
		}
	}
	return v, matched, ok
}

// exact returns the value stored at exactly the given prefix.
func (t *trie[V]) exact(k key) (v V, ok bool) {
	n := t.root
	if n == nil {
		return v, false
	}
	for i := uint8(0); i < k.length; i++ {
		n = n.child[k.bit(i)]
		if n == nil {
			return v, false
		}
	}
	return n.val, n.set
}

func (t *trie[V]) walk(n *node[V], k key, fn func(key, V) bool) bool {
	if n == nil {
		return true
	}
	if n.set && !fn(k, n.val) {
		return false
	}
	for b := byte(0); b < 2; b++ {
		child := n.child[b]
		if child == nil {
			continue
		}
		ck := k
		ck.length++
		if b == 1 {
			if k.length < 64 {
				ck.hi |= 1 << (63 - k.length)
			} else {
				ck.lo |= 1 << (127 - k.length)
			}
		}
		if !t.walk(child, ck, fn) {
			return false
		}
	}
	return true
}

// Table4 is a longest-prefix-match table over the underlay address space.
// The zero value is an empty table ready to use.
type Table4[V any] struct {
	t trie[V]
}

func key4(p addr.Prefix) key {
	return key{hi: uint64(uint32(p.Addr)) << 32, length: p.Len}
}

// Insert adds or replaces the route for prefix p.
func (t *Table4[V]) Insert(p addr.Prefix, v V) { t.t.insert(key4(p), v) }

// Delete removes the route for exactly p, reporting whether it existed.
func (t *Table4[V]) Delete(p addr.Prefix) bool { return t.t.remove(key4(p)) }

// Lookup returns the value of the longest prefix containing a.
func (t *Table4[V]) Lookup(a addr.V4) (V, addr.Prefix, bool) {
	v, l, ok := t.t.lookup(key{hi: uint64(uint32(a)) << 32, length: 32})
	if !ok {
		var zero V
		return zero, addr.Prefix{}, false
	}
	return v, addr.MakePrefix(a, l), true
}

// Exact returns the value stored for exactly p.
func (t *Table4[V]) Exact(p addr.Prefix) (V, bool) { return t.t.exact(key4(p)) }

// Len returns the number of routes.
func (t *Table4[V]) Len() int { return t.t.size }

// NodeCount returns the number of allocated trie nodes — the memory
// footprint oracle. Deleting every route returns it to zero.
func (t *Table4[V]) NodeCount() int { return t.t.nodes }

// Matches visits every stored prefix containing a, longest first —
// the whole LPM chain rather than only the best match. Returning false
// from fn stops the walk early.
func (t *Table4[V]) Matches(a addr.V4, fn func(addr.Prefix, V) bool) {
	t.t.matches(key{hi: uint64(uint32(a)) << 32, length: 32}, func(k key, v V) bool {
		return fn(addr.Prefix{Addr: addr.V4(uint32(k.hi >> 32)), Len: k.length}, v)
	})
}

// Walk visits every route in bit order; returning false from fn stops the
// walk early.
func (t *Table4[V]) Walk(fn func(addr.Prefix, V) bool) {
	t.t.walk(t.t.root, key{}, func(k key, v V) bool {
		return fn(addr.Prefix{Addr: addr.V4(uint32(k.hi >> 32)), Len: k.length}, v)
	})
}

// TableVN is a longest-prefix-match table over the IPvN address space.
// The zero value is an empty table ready to use.
type TableVN[V any] struct {
	t trie[V]
}

func keyVN(p addr.VNPrefix) key {
	return key{hi: p.Addr.Hi, lo: p.Addr.Lo, length: p.Len}
}

// Insert adds or replaces the route for prefix p.
func (t *TableVN[V]) Insert(p addr.VNPrefix, v V) { t.t.insert(keyVN(p), v) }

// Delete removes the route for exactly p, reporting whether it existed.
func (t *TableVN[V]) Delete(p addr.VNPrefix) bool { return t.t.remove(keyVN(p)) }

// Lookup returns the value of the longest prefix containing a.
func (t *TableVN[V]) Lookup(a addr.VN) (V, addr.VNPrefix, bool) {
	v, l, ok := t.t.lookup(key{hi: a.Hi, lo: a.Lo, length: 128})
	if !ok {
		var zero V
		return zero, addr.VNPrefix{}, false
	}
	return v, addr.MakeVNPrefix(a, l), true
}

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
