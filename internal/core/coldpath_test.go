package core

import (
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/topology"
)

// coldFleet is the benchmark's fleet in small: 400 domains, the four
// transits deployed, every host registered, so a destination in a stub is
// self-addressed and a flow to it walks a tail and a baseline.
func coldFleet(t *testing.T) (*Evolution, *topology.Network) {
	t.Helper()
	n, err := topology.TransitStub(4, 99, 0.3, topology.GenConfig{Seed: 42, RoutersPerDomain: 2, HostsPerDomain: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := newEvo(t, n, Config{})
	for _, name := range []string{"T0", "T1", "T2", "T3"} {
		e.DeployDomain(n.DomainByName(name).ASN, 0)
	}
	if err := e.RegisterEndhosts(n.Hosts); err != nil {
		t.Fatal(err)
	}
	return e, n
}

// TestColdSendAllocBudget prices a flow miss on converged routing: the
// two unicast walks of computeFlow — the tail and the priced baseline —
// run in one pooled walk, so what a cold send to a self-addressed
// destination allocates is what it keeps: the flowEntry, its exact-size
// tail path and the egress decision's bone path.
func TestColdSendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	e, n := coldFleet(t)
	type pair struct{ src, dst *topology.Host }
	var pairs []pair
	hosts := n.Hosts
	for i := 0; len(pairs) < 300; i++ {
		src, dst := hosts[(i*37)%len(hosts)], hosts[(i*37+len(hosts)/2)%len(hosts)]
		if src.Domain != dst.Domain && e.epoch.Load().addrOf(dst).IsSelf() {
			pairs = append(pairs, pair{src, dst})
		}
	}
	send := func(p pair) {
		d, err := e.Send(p.src, p.dst, nil)
		if err != nil || d.Fallback || len(d.TailPath) == 0 {
			t.Fatalf("%s→%s: %+v, %v", p.src.Name, p.dst.Name, d, err)
		}
	}
	// Converge: BGP prefixes, IGP trees and the redirect cache. Then a
	// routing-neutral epoch starts the flow cache over and carries the
	// rest, so every send below is a miss that walks.
	for _, p := range pairs {
		send(p)
	}
	if err := e.RegisterEndhosts(nil); err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot()
	i := 0
	allocs := testing.AllocsPerRun(len(pairs)-1, func() { send(pairs[i]); i++ })
	d := e.Snapshot().Sub(before)
	if d.DeliveryFlowMisses != uint64(len(pairs)) || d.DeliveryFlowHits != 0 {
		t.Fatalf("%d sends: %d flow misses, %d hits; want all misses", len(pairs), d.DeliveryFlowMisses, d.DeliveryFlowHits)
	}
	t.Logf("a cold send allocates %.1f objects", allocs)
	if allocs > 4 {
		t.Errorf("a cold send allocates %.1f objects, want at most 4 (31 when each walk built and dropped its own paths)", allocs)
	}
}

// TestRetainedPathsAreExact: what the caches keep of a walk is a copy
// with no spare capacity — a flow's tail path, a resolution's router and
// AS paths — so an entry can never pin a pooled walk buffer, nor pay for
// one's slack a million times over.
func TestRetainedPathsAreExact(t *testing.T) {
	e, n := coldFleet(t)
	hosts := n.Hosts
	for i := 0; i < 400; i++ {
		src, dst := hosts[(i*37)%len(hosts)], hosts[(i*53+len(hosts)/2)%len(hosts)]
		if src == dst {
			continue
		}
		if _, err := e.Send(src, dst, nil); err != nil {
			t.Fatalf("%s→%s: %v", src.Name, dst.Name, err)
		}
	}
	ep := e.epoch.Load()
	flows, long := 0, 0
	ep.flow.each(func(_ int, k flowKey, fe *flowEntry) {
		flows++
		if len(fe.tailPath) > 2 {
			long++
		}
		if cap(fe.tailPath) != len(fe.tailPath) {
			t.Errorf("flow %d→%d: tailPath len %d cap %d", k.src, k.dst, len(fe.tailPath), cap(fe.tailPath))
		}
	})
	resolutions := 0
	ep.resolve.each(func(_ int, k resolveKey, res *anycast.Resolution) {
		resolutions++
		if cap(res.RouterPath) != len(res.RouterPath) || cap(res.ASPath) != len(res.ASPath) {
			t.Errorf("resolution %v: RouterPath %d/%d, ASPath %d/%d", k,
				len(res.RouterPath), cap(res.RouterPath), len(res.ASPath), cap(res.ASPath))
		}
	})
	if flows == 0 || long == 0 || resolutions == 0 {
		t.Fatalf("checked %d flows (%d with a tail over two routers) and %d resolutions", flows, long, resolutions)
	}
}
