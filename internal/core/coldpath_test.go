package core

import (
	"testing"
	"unsafe"

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
// destination allocates is what it keeps: the flowEntry. The egress
// decision's bone path is the bone's shared copy, written once per member
// pair, and the tail leg is kept as a cost, so a copy of either would
// show here as a second object.
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
		if err != nil || d.Fallback || d.TailCost == 0 {
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
	if allocs > 1 {
		t.Errorf("a cold send allocates %.1f objects, want at most 1: the flowEntry (31 when each walk built and dropped its own paths)", allocs)
	}
}

// TestRetainedPathsAreExact: what the redirect cache keeps of a walk — a
// resolution's AS path — is a copy with no spare capacity, so an entry
// can never pin a pooled walk buffer, nor pay for one's slack a million
// times over. A flow keeps no path of its own walks: its tail and
// baseline are costs.
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
	resolutions, long := 0, 0
	e.epoch.Load().resolve.each(func(_ int, k resolveKey, res *anycast.Resolution) {
		resolutions++
		if len(res.ASPath) > 1 {
			long++
		}
		if cap(res.ASPath) != len(res.ASPath) {
			t.Errorf("resolution %v: ASPath len %d cap %d", k, len(res.ASPath), cap(res.ASPath))
		}
	})
	if resolutions == 0 || long == 0 {
		t.Fatalf("checked %d resolutions (%d crossing a domain boundary)", resolutions, long)
	}
}

// TestFlowEntryFitsItsSizeClass pins what the flow cache keeps per flow:
// fleet_cold retains 50 000 entries, and an entry holds decisions and
// costs only, so it stays in the runtime's 48-byte size class; its key,
// held inline in the flow-cache and flow-health maps, is three 32-bit
// words.
func TestFlowEntryFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(flowEntry{}); got > 48 {
		t.Errorf("flowEntry is %d bytes, past the 48-byte size class", got)
	}
	if got := unsafe.Sizeof(flowKey{}); got != 12 {
		t.Errorf("flowKey is %d bytes, want 12: every flow-cache and flow-health slot holds one inline", got)
	}
}
