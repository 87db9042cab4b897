// Package cowmap is a hash map cut into shards that a fork shares with
// its parent until one of the two writes to a shard: forking costs one
// slice of shard pointers, and a write copies only the shard it lands in.
// It is how an immutable routing epoch hands its tables to the next epoch
// — the endhost registry in internal/core and the host-route table in
// internal/routing/bgpvn — at a cost proportional to what changed.
package cowmap

// Map is a sharded copy-on-write hash map.
//
// Concurrency: Get may run from any number of goroutines, concurrently
// with Fork on the same Map and with every operation on its forks. Set,
// Delete and Fork on one Map need external serialization, and a Map that
// other goroutines read must not be written (fork it and write the fork).
type Map[K, V comparable] struct {
	hash   func(K) uint32
	shards []map[K]V
	// owned[i] reports that no other Map shares shards[i], so a write may
	// edit it in place. Fork clears it on both sides.
	owned []bool
}

// New returns an empty Map of n shards (n a power of two) selected by the
// low bits of hash.
func New[K, V comparable](n int, hash func(K) uint32) *Map[K, V] {
	m := &Map[K, V]{hash: hash, shards: make([]map[K]V, n), owned: make([]bool, n)}
	for i := range m.shards {
		m.shards[i] = map[K]V{}
		m.owned[i] = true
	}
	return m
}

func (m *Map[K, V]) shardOf(k K) int { return int(m.hash(k)) & (len(m.shards) - 1) }

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	v, ok := m.shards[m.shardOf(k)][k]
	return v, ok
}

// own makes shard i private to m, copying it if a fork still shares it.
func (m *Map[K, V]) own(i int) map[K]V {
	if !m.owned[i] {
		clone := make(map[K]V, len(m.shards[i])+1)
		for k, v := range m.shards[i] {
			clone[k] = v
		}
		m.shards[i] = clone
		m.owned[i] = true
	}
	return m.shards[i]
}

// Set stores v under k. Storing the value k already has never copies a
// shard, so re-asserting an entry keeps it shared.
func (m *Map[K, V]) Set(k K, v V) {
	i := m.shardOf(k)
	if !m.owned[i] {
		if old, ok := m.shards[i][k]; ok && old == v {
			return
		}
	}
	m.own(i)[k] = v
}

// Delete removes k and reports whether it was present.
func (m *Map[K, V]) Delete(k K) bool {
	i := m.shardOf(k)
	if _, ok := m.shards[i][k]; !ok {
		return false
	}
	delete(m.own(i), k)
	return true
}

// Fork returns a Map with m's contents that shares every shard with m;
// from here on each side copies a shard before its first write to it.
func (m *Map[K, V]) Fork() *Map[K, V] {
	f := &Map[K, V]{hash: m.hash, shards: make([]map[K]V, len(m.shards)), owned: make([]bool, len(m.shards))}
	copy(f.shards, m.shards)
	clear(m.owned)
	return f
}
