package core

import (
	"reflect"
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/topology"
)

// consequenceWorld is peeringWorld before any advert (T0, S1.1 and S2.2
// participate, three routers each) with S0.0's two self-addressed hosts
// registered, so every routing epoch resolves their attach routers.
type consequenceWorld struct {
	evo *Evolution
	net *topology.Network
	// stubLink is S0.0's first inter-domain link as built.
	stubLink topology.InterLink
}

func (w consequenceWorld) dom(name string) *topology.Domain { return w.net.DomainByName(name) }

// interLinksOf lists the inter-domain links that touch asn, in n.Inter
// order.
func (w consequenceWorld) interLinksOf(asn topology.ASN) []topology.InterLink {
	var out []topology.InterLink
	for _, l := range w.net.Inter {
		if w.net.DomainOf(l.From) == asn || w.net.DomainOf(l.To) == asn {
			out = append(out, l)
		}
	}
	return out
}

// undeploy withdraws every router of the named domains.
func (w consequenceWorld) undeploy(names ...string) {
	for _, n := range names {
		for _, r := range w.dom(n).Routers {
			w.evo.UndeployRouter(r)
		}
	}
}

// consequences is what one mutator call did to the published epoch and
// the counters. resolve is "shared" (the previous epoch's table),
// "carried" (a new table holding some of the previous one's entries) or
// "fresh"; flow is "shared" or "fresh"; vn is "shared", "new" or "none"
// (an error epoch); prov is "shared", "frozen" (new clones) or "none".
type consequences struct {
	mutSeq, epochs, invalDomain, invalInter uint64
	rebuilds, reused, rebuilt, failed       uint64
	resolve, flow, vn, prov                 string
}

// observe runs call on w and reports its consequences.
func observe(t *testing.T, w consequenceWorld, call func(consequenceWorld)) consequences {
	t.Helper()
	// Warm both caches: every host's attach router resolved, one flow each.
	dst := w.net.HostsIn(w.dom("S2.2").ASN)[0]
	for _, h := range w.net.Hosts {
		if h.Domain != dst.Domain {
			_, _ = w.evo.Send(h, dst, nil)
		}
	}
	prev := w.evo.epoch.Load()
	seq, before := w.evo.mutSeq.Load(), w.evo.Snapshot()
	call(w)
	ep := w.evo.epoch.Load()
	if ep.seq != w.evo.mutSeq.Load() {
		t.Errorf("published epoch sealed at %d, mutSeq %d", ep.seq, w.evo.mutSeq.Load())
	}
	d := w.evo.Snapshot().Sub(before)
	c := consequences{
		mutSeq: w.evo.mutSeq.Load() - seq, epochs: d.Epochs,
		invalDomain: d.InvalDomain, invalInter: d.InvalInter,
		rebuilds: d.BoneRebuilds, reused: d.BoneDomainsReused, rebuilt: d.BoneDomainsRebuilt,
		failed:  d.RebuildsFailed,
		resolve: "fresh", flow: "fresh", vn: "new", prov: "frozen",
	}
	switch {
	case ep.resolve == prev.resolve:
		c.resolve = "shared"
	default:
		ep.resolve.each(func(_ int, k resolveKey, res *anycast.Resolution) {
			if old, ok := prev.resolve.load(uint32(k.router), k); ok && old == res {
				c.resolve = "carried"
			}
		})
	}
	if ep.flow == prev.flow {
		c.flow = "shared"
	}
	switch {
	case ep.vn == nil:
		c.vn = "none"
	case ep.vn == prev.vn:
		c.vn = "shared"
	}
	switch {
	case ep.provDeps == nil:
		c.prov = "none"
	case reflect.ValueOf(ep.provDeps).UnsafePointer() == reflect.ValueOf(prev.provDeps).UnsafePointer():
		c.prov = "shared"
	}
	return c
}

// TestMutatorConsequences pins what every mutator does to the next epoch —
// counters, bone work, and which of the redirect cache, flow cache, BGPvN
// tables and frozen provider deployments it shares, carries or replaces —
// for each of its outcomes: effective, a no-op (resealed under the new
// mutation sequence, nothing rebuilt) and refused (nothing published,
// mutSeq untouched).
func TestMutatorConsequences(t *testing.T) {
	// resealed is the no-op: one epoch, everything shared.
	resealed := consequences{mutSeq: 1, epochs: 1, resolve: "shared", flow: "shared", vn: "shared", prov: "shared"}
	// refused publishes nothing.
	refused := consequences{resolve: "shared", flow: "shared", vn: "shared", prov: "shared"}
	// registered is a registration delta: a new registered set, fresh flows.
	registered := consequences{mutSeq: 1, epochs: 1, resolve: "shared", flow: "fresh", vn: "shared", prov: "shared"}
	// inter is an inter-domain link event: every intra mesh reused.
	inter := consequences{mutSeq: 1, epochs: 1, invalInter: 1, rebuilds: 1, reused: 3, resolve: "fresh", flow: "fresh", vn: "new", prov: "frozen"}
	// intraT0 is an intra-domain link event in T0.
	intraT0 := consequences{mutSeq: 1, epochs: 1, invalDomain: 1, rebuilds: 1, reused: 2, rebuilt: 1, resolve: "carried", flow: "fresh", vn: "new", prov: "frozen"}

	rows := []struct {
		name  string
		setup func(w consequenceWorld)
		call  func(w consequenceWorld)
		want  consequences
	}{
		{"DeployRouters/join", nil,
			func(w consequenceWorld) { w.evo.DeployDomain(w.dom("S0.1").ASN, 0) },
			consequences{mutSeq: 1, epochs: 1, invalDomain: 1, rebuilds: 1, reused: 3, rebuilt: 1, resolve: "fresh", flow: "fresh", vn: "new", prov: "frozen"}},
		{"DeployRouters/grow", func(w consequenceWorld) { w.evo.UndeployRouter(w.dom("T0").Routers[0]) },
			func(w consequenceWorld) { w.evo.DeployRouter(w.dom("T0").Routers[0]) },
			intraT0},
		{"DeployRouters/heal", func(w consequenceWorld) { w.undeploy("T0", "S1.1", "S2.2") },
			func(w consequenceWorld) { w.evo.DeployDomain(w.dom("S1.1").ASN, 0) },
			consequences{mutSeq: 1, epochs: 1, invalDomain: 1, rebuilds: 1, rebuilt: 1, resolve: "fresh", flow: "fresh", vn: "new", prov: "frozen"}},
		{"DeployRouters/no-op", nil,
			func(w consequenceWorld) { w.evo.DeployRouter(w.dom("T0").Routers[0]) },
			resealed},
		{"UndeployRouter/shrink", nil,
			func(w consequenceWorld) { w.evo.UndeployRouter(w.dom("T0").Routers[0]) },
			intraT0},
		{"UndeployRouter/leave", func(w consequenceWorld) {
			w.evo.UndeployRouter(w.dom("S1.1").Routers[0])
			w.evo.UndeployRouter(w.dom("S1.1").Routers[1])
		},
			func(w consequenceWorld) { w.evo.UndeployRouter(w.dom("S1.1").Routers[2]) },
			consequences{mutSeq: 1, epochs: 1, invalDomain: 1, rebuilds: 1, reused: 2, resolve: "fresh", flow: "fresh", vn: "new", prov: "frozen"}},
		{"UndeployRouter/last", func(w consequenceWorld) {
			w.undeploy("S1.1", "S2.2")
			w.evo.UndeployRouter(w.dom("T0").Routers[0])
			w.evo.UndeployRouter(w.dom("T0").Routers[1])
		},
			func(w consequenceWorld) { w.evo.UndeployRouter(w.dom("T0").Routers[2]) },
			consequences{mutSeq: 1, epochs: 1, invalDomain: 1, resolve: "fresh", flow: "fresh", vn: "none", prov: "none"}},
		{"UndeployRouter/no-op", nil,
			func(w consequenceWorld) { w.evo.UndeployRouter(w.dom("S0.1").Routers[0]) },
			resealed},
		{"EnableProviderChoice", nil,
			func(w consequenceWorld) { _, _ = w.evo.EnableProviderChoice(w.dom("T0").ASN) },
			consequences{mutSeq: 1, epochs: 1, resolve: "shared", flow: "shared", vn: "shared", prov: "frozen"}},
		{"EnableProviderChoice/non-participant", nil,
			func(w consequenceWorld) { _, _ = w.evo.EnableProviderChoice(w.dom("S0.1").ASN) },
			refused},
		{"EnableProviderChoice/again", func(w consequenceWorld) { _, _ = w.evo.EnableProviderChoice(w.dom("T0").ASN) },
			func(w consequenceWorld) { _, _ = w.evo.EnableProviderChoice(w.dom("T0").ASN) },
			refused},
		{"RegisterEndhosts", nil,
			func(w consequenceWorld) { _ = w.evo.RegisterEndhosts(w.net.HostsIn(w.dom("S0.2").ASN)) },
			registered},
		{"RegisterEndhosts/empty", nil,
			func(w consequenceWorld) { _ = w.evo.RegisterEndhosts(nil) },
			registered},
		{"RegisterEndhosts/error-epoch", func(w consequenceWorld) { w.undeploy("T0", "S1.1", "S2.2") },
			func(w consequenceWorld) { _ = w.evo.RegisterEndhosts(w.net.HostsIn(w.dom("S0.2").ASN)) },
			consequences{resolve: "shared", flow: "shared", vn: "none", prov: "none"}},
		{"UnregisterEndhost", nil,
			func(w consequenceWorld) { w.evo.UnregisterEndhost(w.net.HostsIn(w.dom("S0.0").ASN)[0]) },
			registered},
		{"UnregisterEndhost/unregistered", nil,
			func(w consequenceWorld) { w.evo.UnregisterEndhost(w.net.HostsIn(w.dom("S0.2").ASN)[0]) },
			refused},
		{"UnregisterEndhost/error-epoch", func(w consequenceWorld) { w.undeploy("T0", "S1.1", "S2.2") },
			func(w consequenceWorld) { w.evo.UnregisterEndhost(w.net.HostsIn(w.dom("S0.0").ASN)[0]) },
			consequences{mutSeq: 1, epochs: 1, resolve: "shared", flow: "shared", vn: "none", prov: "none"}},
		{"FailIntraLink", nil,
			func(w consequenceWorld) { w.evo.FailIntraLink(w.dom("T0").Routers[0], w.dom("T0").Routers[1]) },
			intraT0},
		{"FailIntraLink/no-link", nil,
			func(w consequenceWorld) { w.evo.FailIntraLink(w.dom("T0").Routers[0], w.dom("S0.0").Routers[0]) },
			resealed},
		{"RestoreIntraLink", func(w consequenceWorld) { w.evo.FailIntraLink(w.dom("T0").Routers[0], w.dom("T0").Routers[1]) },
			func(w consequenceWorld) { w.evo.RestoreIntraLink(w.dom("T0").Routers[0], w.dom("T0").Routers[1], 1) },
			intraT0},
		{"RestoreIntraLink/up", nil,
			func(w consequenceWorld) { w.evo.RestoreIntraLink(w.dom("T0").Routers[0], w.dom("T0").Routers[1], 1) },
			resealed},
		{"FailInterLink", nil,
			func(w consequenceWorld) { w.evo.FailInterLink(w.stubLink.From, w.stubLink.To) },
			inter},
		{"FailInterLink/bone-fails", func(w consequenceWorld) {
			ls := w.interLinksOf(w.dom("S2.2").ASN)
			for _, l := range ls[:len(ls)-1] {
				w.evo.FailInterLink(l.From, l.To)
			}
		},
			func(w consequenceWorld) {
				ls := w.interLinksOf(w.dom("S2.2").ASN)
				w.evo.FailInterLink(ls[0].From, ls[0].To)
			},
			consequences{mutSeq: 1, epochs: 1, invalInter: 1, failed: 1, resolve: "fresh", flow: "fresh", vn: "none", prov: "frozen"}},
		{"FailInterLink/no-link", nil,
			func(w consequenceWorld) { w.evo.FailInterLink(w.dom("T0").Routers[0], w.dom("T0").Routers[1]) },
			resealed},
		{"RestoreInterLink", func(w consequenceWorld) { w.evo.FailInterLink(w.stubLink.From, w.stubLink.To) },
			func(w consequenceWorld) { w.evo.RestoreInterLink(w.stubLink) },
			inter},
		{"RestoreInterLink/up", nil,
			func(w consequenceWorld) { w.evo.RestoreInterLink(w.stubLink) },
			resealed},
		{"AdvertiseToNeighbors", nil,
			func(w consequenceWorld) {
				_ = w.evo.AdvertiseToNeighbors(w.dom("S1.1").ASN, w.net.Neighbors(w.dom("S1.1").ASN)[0].ASN)
			},
			consequences{mutSeq: 1, epochs: 1, rebuilds: 1, reused: 3, resolve: "fresh", flow: "fresh", vn: "new", prov: "frozen"}},
		{"AdvertiseToNeighbors/non-participant", nil,
			func(w consequenceWorld) { _ = w.evo.AdvertiseToNeighbors(w.dom("S0.1").ASN) },
			resealed},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			evo, _ := peeringWorld(t)
			w := consequenceWorld{evo: evo, net: evo.Net}
			w.stubLink = w.interLinksOf(w.dom("S0.0").ASN)[0]
			if err := evo.RegisterEndhosts(w.net.HostsIn(w.dom("S0.0").ASN)); err != nil {
				t.Fatal(err)
			}
			if row.setup != nil {
				row.setup(w)
			}
			if got := observe(t, w, row.call); got != row.want {
				t.Errorf("\n got %+v\nwant %+v", got, row.want)
			}
		})
	}
}
