package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/topology"
)

// scaleWorld is the cold_start internet at its full size — 4 000 domains,
// 200 000 hosts (seed 42) — with its 40 transits and 100 stubs deployed,
// multihomed stubs first, and every host registered.
type scaleWorld struct {
	net      *topology.Network
	evo      *Evolution
	deployed []topology.ASN // transits, then stubs
	stubs    []topology.ASN // deployed stubs, multihomed first
	multi    int            // how many of stubs are multihomed
}

func newScaleWorld(b *testing.B) *scaleWorld {
	b.Helper()
	net, err := topology.TransitStub(40, 99, 0.3, topology.GenConfig{Seed: 42, RoutersPerDomain: 2, HostsPerDomain: 50})
	if err != nil {
		b.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option2, DefaultAS: net.DomainByName("T0").ASN})
	if err != nil {
		b.Fatal(err)
	}
	w := &scaleWorld{net: net, evo: evo}
	var single []topology.ASN
	for _, asn := range net.ASNs() {
		if net.Domain(asn).Name[0] != 'S' {
			continue
		}
		if len(linksOf(net, asn)) > 1 {
			w.stubs = append(w.stubs, asn)
		} else {
			single = append(single, asn)
		}
	}
	w.multi = min(len(w.stubs), 100)
	w.stubs = append(w.stubs, single...)[:100]
	for i := 0; i < 40; i++ {
		w.deployed = append(w.deployed, net.DomainByName(fmt.Sprintf("T%d", i)).ASN)
	}
	w.deployed = append(w.deployed, w.stubs...)
	for _, asn := range w.deployed {
		evo.DeployDomain(asn, 0)
	}
	if err := evo.RegisterEndhosts(net.Hosts); err != nil {
		b.Fatal(err)
	}
	// A per-registrant renewal resolves once per self-addressed host; a
	// per-router one once per attach router with a registrant.
	self, routers := 0, map[topology.RouterID]bool{}
	for _, h := range net.Hosts {
		routers[h.Attach] = true
		if v, err := evo.HostVNAddr(h); err == nil && v.IsSelf() {
			self++
		}
	}
	b.Logf("%d self-addressed registrants; %d attach routers with a registrant", self, len(routers))
	return w
}

// linksOf lists the inter-domain links that touch asn.
func linksOf(net *topology.Network, asn topology.ASN) []topology.InterLink {
	var out []topology.InterLink
	for _, l := range net.Inter {
		if net.DomainOf(l.From) == asn || net.DomainOf(l.To) == asn {
			out = append(out, l)
		}
	}
	return out
}

// BenchmarkEventAtInternetScale times the four routing-event kinds of the
// churn workload on the cold_start world: an intra link of a deployed
// domain, a provider link of a deployed multihomed stub, a router of a
// deployed stub and a registered host, each failed (or withdrawn) and
// repaired. One iteration is one such pair; ms/event is half of it. The
// world takes a few seconds to build and ≈ 50 MB, so run it alone:
//
//	go test -run '^$' -bench EventAtInternetScale -benchtime 16x ./internal/core
func BenchmarkEventAtInternetScale(b *testing.B) {
	w := newScaleWorld(b)
	net, evo := w.net, w.evo
	rng := rand.New(rand.NewSource(42))
	kinds := []struct {
		name string
		pair func() func(repair bool)
	}{
		{"intra_link", func() func(bool) {
			rs := net.Domain(w.deployed[rng.Intn(len(w.deployed))]).Routers
			a := rs[rng.Intn(len(rs))]
			edges := net.Intra.Neighbors(int(a))
			e := edges[rng.Intn(len(edges))]
			return func(repair bool) {
				if repair {
					evo.RestoreIntraLink(a, topology.RouterID(e.To), e.Weight)
				} else {
					evo.FailIntraLink(a, topology.RouterID(e.To))
				}
			}
		}},
		{"inter_link", func() func(bool) {
			links := linksOf(net, w.stubs[rng.Intn(w.multi)])
			l := links[rng.Intn(len(links))]
			return func(repair bool) {
				if repair {
					evo.RestoreInterLink(l)
				} else {
					evo.FailInterLink(l.From, l.To)
				}
			}
		}},
		{"router_toggle", func() func(bool) {
			rs := net.Domain(w.stubs[rng.Intn(len(w.stubs))]).Routers
			r := rs[rng.Intn(len(rs))]
			return func(repair bool) {
				if repair {
					evo.DeployRouter(r)
				} else {
					evo.UndeployRouter(r)
				}
			}
		}},
		{"host_toggle", func() func(bool) {
			h := net.Hosts[rng.Intn(len(net.Hosts))]
			return func(repair bool) {
				if repair {
					_ = evo.RegisterEndhost(h)
				} else {
					evo.UnregisterEndhost(h)
				}
			}
		}},
	}
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			var took time.Duration
			for i := 0; i < b.N; i++ {
				apply := k.pair()
				t0 := time.Now()
				apply(false)
				apply(true)
				took += time.Since(t0)
			}
			b.ReportMetric(took.Seconds()*1e3/float64(2*b.N), "ms/event")
		})
	}
}
