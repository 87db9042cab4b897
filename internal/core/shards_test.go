package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/evolvable-net/evolve/internal/topology"
)

// stripTag zeroes the fields that legitimately differ between runs: the
// per-delivery random trace tag.
func stripTag(d Delivery) Delivery {
	d.TraceTag = 0
	return d
}

// runDeliveryScript drives one Evolution through the same deployment,
// registration, failure and send sequence and returns every delivery and
// every host address it observed, in order.
func runDeliveryScript(t *testing.T, e *Evolution) ([]Delivery, []string) {
	t.Helper()
	n := e.Net
	t0 := n.DomainByName("T0")
	s00 := n.DomainByName("S0.0")
	s11 := n.DomainByName("S1.1")
	e.DeployDomain(t0.ASN, 0)
	e.DeployDomain(s00.ASN, 0)
	if err := e.RegisterEndhosts(n.HostsIn(s11.ASN)); err != nil {
		t.Fatal(err)
	}

	var deliveries []Delivery
	sendAll := func() {
		for _, src := range n.Hosts[:6] {
			for _, dst := range n.Hosts[len(n.Hosts)-6:] {
				if src == dst {
					continue
				}
				d, err := e.Send(src, dst, []byte("equivalence"))
				if err != nil {
					t.Fatalf("send %s->%s: %v", src.Name, dst.Name, err)
				}
				// Send twice: the second delivery is a flow-cache hit on
				// cached configurations and must be indistinguishable.
				d2, err := e.Send(src, dst, []byte("equivalence"))
				if err != nil {
					t.Fatalf("re-send %s->%s: %v", src.Name, dst.Name, err)
				}
				if !reflect.DeepEqual(stripTag(d), stripTag(d2)) {
					t.Fatalf("cached re-send differs for %s->%s:\n%+v\n%+v", src.Name, dst.Name, d, d2)
				}
				deliveries = append(deliveries, stripTag(d))
			}
		}
	}

	sendAll()
	// Intra-domain failure in the deployed transit: scoped reconvergence.
	rts := t0.Routers
	e.FailIntraLink(rts[0], rts[1])
	sendAll()
	// Participation change: a stub adopts, its hosts relabel.
	e.DeployDomain(n.DomainByName("S1.0").ASN, 1)
	sendAll()
	// Registration churn on the self-addressed side.
	e.UnregisterEndhost(n.HostsIn(s11.ASN)[0])
	sendAll()

	var addrs []string
	for _, h := range n.Hosts {
		v, err := e.HostVNAddr(h)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, v.String())
	}
	return deliveries, addrs
}

// TestShardEquivalence runs the same script at shard counts 1, 4 and 16;
// every delivery and every address must be identical. Sharding is layout
// and speed, never routing. (That memoisation is not routing either is
// the script's own miss-then-hit comparison, and TestFlowCacheCounters'
// recomputation after a routing-neutral republish.)
func TestShardEquivalence(t *testing.T) {
	type arm struct {
		name   string
		shards int
	}
	arms := []arm{
		{"shards=1", 1},
		{"shards=4", 4},
		{"shards=16", 16},
	}
	var refDel []Delivery
	var refAddrs []string
	for i, a := range arms {
		e := newEvoShards(t, world(t), Config{}, a.shards)
		del, addrs := runDeliveryScript(t, e)
		if i == 0 {
			refDel, refAddrs = del, addrs
			continue
		}
		if !reflect.DeepEqual(refAddrs, addrs) {
			t.Errorf("%s: host addresses diverge from %s", a.name, arms[0].name)
		}
		if len(refDel) != len(del) {
			t.Fatalf("%s: %d deliveries, want %d", a.name, len(del), len(refDel))
		}
		for j := range refDel {
			if !reflect.DeepEqual(refDel[j], del[j]) {
				t.Fatalf("%s: delivery %d diverges:\n%+v\n%+v", a.name, j, refDel[j], del[j])
			}
		}
	}
}

// TestFlowCacheCounters checks the delivery flow cache's own accounting
// and exactness: a repeated flow is one miss then hits, and a skeleton
// recomputed on a fresh flow cache over unchanged routing delivers exactly
// what the hits did.
func TestFlowCacheCounters(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	src := n.HostsIn(n.DomainByName("S0.0").ASN)[0]
	dst := n.HostsIn(n.DomainByName("S1.1").ASN)[0]
	var hit Delivery
	for i := 0; i < 5; i++ {
		d, err := e.Send(src, dst, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		hit = d
	}
	s := e.Snapshot()
	if s.DeliveryFlowMisses != 1 || s.DeliveryFlowHits != 4 {
		t.Errorf("misses=%d hits=%d, want 1/4", s.DeliveryFlowMisses, s.DeliveryFlowHits)
	}
	// An empty registration republishes the same routing with the flow
	// cache started over: the next send recomputes, and must agree with
	// the memoised skeleton the hits were served from.
	if err := e.RegisterEndhosts(nil); err != nil {
		t.Fatal(err)
	}
	recomputed, err := e.Send(src, dst, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if s = e.Snapshot(); s.DeliveryFlowMisses != 2 {
		t.Errorf("misses=%d after republish, want 2", s.DeliveryFlowMisses)
	}
	if !reflect.DeepEqual(stripTag(hit), stripTag(recomputed)) {
		t.Errorf("recomputed delivery differs from the cached one:\n%+v\n%+v", hit, recomputed)
	}
	// A routing mutation invalidates the flow: the next send is a miss.
	rts := n.DomainByName("T0").Routers
	e.FailIntraLink(rts[0], rts[1])
	if _, err := e.Send(src, dst, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if s = e.Snapshot(); s.DeliveryFlowMisses != 3 {
		t.Errorf("misses=%d after link event, want 3", s.DeliveryFlowMisses)
	}
}

// TestSendZeroAlloc pins the steady-state claim: once the flow is
// memoised and the buffer pools are warm, a single send allocates
// nothing, through any of its entry points.
func TestSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	n := world(t)
	e := newEvo(t, n, Config{})
	t0 := n.DomainByName("T0").ASN
	e.DeployDomain(t0, 0)
	if _, err := e.EnableProviderChoice(t0); err != nil {
		t.Fatal(err)
	}
	src := n.HostsIn(n.DomainByName("S0.0").ASN)[0]
	dst := n.HostsIn(n.DomainByName("S1.1").ASN)[0]
	payload := []byte("zero-alloc steady state")
	for name, send := range map[string]func() (Delivery, error){
		"Send":       func() (Delivery, error) { return e.Send(src, dst, payload) },
		"SendTraced": func() (Delivery, error) { return e.SendTraced(src, dst, payload, nil) },
		"SendVia":    func() (Delivery, error) { return e.SendVia(src, dst, t0, payload) },
	} {
		for i := 0; i < 10; i++ {
			if _, err := send(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := send(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state %s allocates %.1f objects per op, want 0", name, allocs)
		}
	}
}

// TestStriped holds the one striped table to its contract at every width
// the equivalence tests run: width changes which lock guards an entry,
// never what the table holds; get-or-create hands every racing caller the
// one value that won; and a hit — the per-packet probe — allocates nothing.
func TestStriped(t *testing.T) {
	key := func(i int) flowKey {
		return flowKey{src: uint32(i), dst: uint32(i * 7), dep: 1}
	}
	for _, width := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", width), func(t *testing.T) {
			// The same script of stores, overwrites and get-or-creates as a
			// plain map takes; afterwards each must list exactly that map.
			s := newStriped[flowKey, *int](width)
			model := map[flowKey]*int{}
			for i := 0; i < 200; i++ {
				k, v := key(i%61), new(int)
				switch i % 3 {
				case 0:
					s.store(uint32(k.src), k, v)
					model[k] = v
				case 1:
					got := s.loadOrCreate(uint32(k.src), k, func(flowKey) *int { return v })
					if _, ok := model[k]; !ok {
						model[k] = v
					}
					if got != model[k] {
						t.Fatalf("op %d: loadOrCreate returned %p, model holds %p", i, got, model[k])
					}
				case 2:
					got, ok := s.load(uint32(k.src), k)
					if want, wantOK := model[k]; got != want || ok != wantOK {
						t.Fatalf("op %d: load = %p,%v, model holds %p,%v", i, got, ok, want, wantOK)
					}
				}
			}
			seen := map[flowKey]*int{}
			s.each(func(stripe int, k flowKey, v *int) {
				if want := int(k.src) & (width - 1); stripe != want {
					t.Errorf("%+v visited in stripe %d, lives in %d", k, stripe, want)
				}
				seen[k] = v
			})
			if !reflect.DeepEqual(seen, model) {
				t.Errorf("contents diverge from the model: %d entries, want %d", len(seen), len(model))
			}
			if f := s.fresh(); len(f.shards) != width {
				t.Errorf("fresh table has %d stripes, want %d", len(f.shards), width)
			}

			// 64 goroutines get-or-create 16 overlapping keys: one creation
			// and one observed value per key.
			const keys = 16
			c := newStriped[flowKey, *int](width)
			var created [keys]atomic.Int32
			var got [64][keys]*int
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < keys; j++ {
						i := (g + j) % keys
						got[g][i] = c.loadOrCreate(uint32(i), key(i), func(flowKey) *int {
							created[i].Add(1)
							return new(int)
						})
					}
				}()
			}
			wg.Wait()
			for i := 0; i < keys; i++ {
				if n := created[i].Load(); n != 1 {
					t.Errorf("key %d created %d times, want 1", i, n)
				}
				for g := range got {
					if got[g][i] != got[0][i] {
						t.Fatalf("key %d: goroutine %d observed %p, goroutine 0 %p", i, g, got[g][i], got[0][i])
					}
				}
			}

			if raceEnabled {
				return // race instrumentation allocates
			}
			k := key(3)
			if a := testing.AllocsPerRun(100, func() { s.load(uint32(k.src), k) }); a != 0 {
				t.Errorf("load hit allocates %.1f objects, want 0", a)
			}
			// A capturing constructor, as the send path's is.
			held := new(int)
			if a := testing.AllocsPerRun(100, func() {
				s.loadOrCreate(uint32(k.src), k, func(flowKey) *int { return held })
			}); a != 0 {
				t.Errorf("loadOrCreate hit allocates %.1f objects, want 0", a)
			}
		})
	}
}

// TestRegisterEndhostsBatch registers a whole domain's hosts as one
// mutation: exactly one epoch publish for the batch, and every member of
// the batch gets registered-native routing on the next send.
func TestRegisterEndhostsBatch(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	hosts := n.HostsIn(n.DomainByName("S1.1").ASN)
	src := n.HostsIn(n.DomainByName("S0.0").ASN)[0]
	before := e.Snapshot().Epochs
	if err := e.RegisterEndhosts(hosts); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().Epochs - before; got != 1 {
		t.Errorf("batch registration published %d epochs, want 1", got)
	}
	for _, h := range hosts {
		d, err := e.Send(src, h, []byte("batch"))
		if err != nil {
			t.Fatal(err)
		}
		// Registration does not relabel — the destination stays
		// self-addressed; its /128 is what routing now knows.
		if !d.DstVN.IsSelf() {
			t.Errorf("host %s relabelled by registration", h.Name)
		}
	}
	var zero []*topology.Host
	if err := e.RegisterEndhosts(zero); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}
