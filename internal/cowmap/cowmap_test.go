package cowmap

import (
	"reflect"
	"testing"
)

func ident(k int) uint32 { return uint32(k) }

func contents(m *Map[int, int], n int) map[int]int {
	out := map[int]int{}
	for k := 0; k < n; k++ {
		if v, ok := m.Get(k); ok {
			out[k] = v
		}
	}
	return out
}

// sharedShards counts the shards a and b hold as the same map object.
func sharedShards(a, b *Map[int, int]) int {
	n := 0
	for i := range a.shards {
		if reflect.ValueOf(a.shards[i]).Pointer() == reflect.ValueOf(b.shards[i]).Pointer() {
			n++
		}
	}
	return n
}

func TestForkIsolatesBothSides(t *testing.T) {
	const n = 64
	parent := New[int, int](8, ident)
	for k := 0; k < n; k++ {
		parent.Set(k, k)
	}
	want := contents(parent, n)

	child := parent.Fork()
	if got := sharedShards(parent, child); got != 8 {
		t.Fatalf("fresh fork shares %d of 8 shards", got)
	}
	child.Set(3, -3)    // overwrite: shard 3
	child.Set(n+4, 104) // insert: shard 4
	if !child.Delete(13) || child.Delete(13) {
		t.Fatal("Delete must report presence once") // shard 5
	}
	if child.Delete(n + 999) {
		t.Fatal("Delete of an absent key reported presence")
	}
	if got := contents(parent, 2*n); !reflect.DeepEqual(got, want) {
		t.Fatalf("child writes reached the parent: %v", got)
	}
	if got := sharedShards(parent, child); got != 5 {
		t.Errorf("three written shards, but %d of 8 still shared", got)
	}

	// The parent copies before writing too: the child keeps its view.
	childWant := contents(child, 2*n)
	parent.Set(0, 1000)
	parent.Delete(1)
	if got := contents(child, 2*n); !reflect.DeepEqual(got, childWant) {
		t.Fatalf("parent writes reached the child: %v", got)
	}
	if v, _ := parent.Get(0); v != 1000 {
		t.Errorf("parent lost its own write: %d", v)
	}
	if _, ok := parent.Get(1); ok {
		t.Error("parent lost its own delete")
	}
}

func TestReassertingAnEntryKeepsItsShardShared(t *testing.T) {
	parent := New[int, int](4, ident)
	for k := 0; k < 16; k++ {
		parent.Set(k, k)
	}
	child := parent.Fork()
	for k := 0; k < 16; k++ {
		child.Set(k, k)
	}
	if got := sharedShards(parent, child); got != 4 {
		t.Errorf("re-asserting every entry copied %d shards", 4-got)
	}
	child.Set(5, 50)
	if got := sharedShards(parent, child); got != 3 {
		t.Errorf("one changed entry: %d of 4 shards shared, want 3", got)
	}
}
