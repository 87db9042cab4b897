package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// egressDetailOf sends src→dst traced and returns the delivery with the
// egress decision's detail ("registered-/128", "native" or the policy).
func egressDetailOf(e *Evolution, src, dst *topology.Host) (Delivery, string, error) {
	rec := trace.NewRecorder()
	d, err := e.SendTraced(src, dst, []byte("twin"), rec)
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindEgress {
			return d, ev.Detail, err
		}
	}
	return d, "", err
}

// advert is one AdvertiseToNeighbors call live accepted.
type advert struct {
	asn  topology.ASN
	nbrs []topology.ASN
}

// registrationTwin builds an Evolution from scratch over live's present
// (mutated) topology with live's membership, makes the provider choices
// and peering adverts live accepted, and registers set in one batch: it
// never saw live's history. A provider choice or an advert is
// configuration that outlives the members it was made with, so where its
// domain has none now the twin makes it as live did, with one router of
// the domain deployed for the call.
func registrationTwin(t *testing.T, live *Evolution, set map[topology.HostID]bool, providers []topology.ASN, adverts []advert) *Evolution {
	t.Helper()
	twin, err := New(live.Net, live.Config())
	if err != nil {
		t.Fatal(err)
	}
	twin.DeployRouters(live.Dep.Members())
	withMember := func(asn topology.ASN, call func() error) {
		if !twin.Participates(asn) {
			r := live.Net.Domain(asn).Routers[0]
			twin.DeployRouter(r)
			defer twin.UndeployRouter(r)
		}
		if err := call(); err != nil {
			t.Fatalf("twin: AS%d: %v", asn, err)
		}
	}
	for _, asn := range providers {
		withMember(asn, func() error { _, err := twin.EnableProviderChoice(asn); return err })
	}
	for _, a := range adverts {
		withMember(a.asn, func() error { return twin.AdvertiseToNeighbors(a.asn, a.nbrs...) })
	}
	var hosts []*topology.Host
	for _, h := range live.Net.Hosts {
		if set[h.ID] {
			hosts = append(hosts, h)
		}
	}
	// An unusable twin (no members, unbuildable bone) refuses the batch;
	// the caller holds live to the same verdict.
	_ = twin.RegisterEndhosts(hosts)
	return twin
}

// referenceRoutes is registration as a per-host route table, the form
// the routing epochs once built: a fresh BGPvN system on evo's bone with
// one /128 for every registered self-addressed host, advertised by the
// domain its attach router's anycast resolution lands in. Queried with no
// origin, its Route is what the registrants' origins must reproduce.
func referenceRoutes(t *testing.T, evo *Evolution, set map[topology.HostID]bool) *bgpvn.System {
	t.Helper()
	bone, err := evo.Bone()
	if err != nil {
		t.Fatal(err)
	}
	ref := bgpvn.New(bone, evo.Fwd, evo.Net)
	for _, h := range evo.Net.Hosts {
		v, err := evo.HostVNAddr(h)
		if err != nil {
			t.Fatal(err)
		}
		if !set[h.ID] || !v.IsSelf() {
			continue
		}
		if res, err := evo.ResolveAnycast(h.Attach, evo.AnycastAddr()); err == nil {
			ref.AdvertiseNative(addr.HostVNPrefix(v), evo.Net.DomainOf(res.Member))
		}
	}
	return ref
}

// TestIncrementalRegistrationMatchesFromScratch drives seeded worlds
// through random interleavings of single and batched registrations,
// withdrawals, membership changes, link events, peering adverts and
// provider choices, and after every step holds the incrementally
// maintained world to a twin built from scratch with one RegisterEndhosts
// of the current set: the same Route for every host from every member,
// the same provider deployments, the same anycast resolution from every
// router toward every anycast address, and the same deliveries. Routes and
// the egress of every delivery, through a provider's address too, must
// also be referenceRoutes' answer.
func TestIncrementalRegistrationMatchesFromScratch(t *testing.T) {
	policies := []bgpvn.EgressPolicy{bgpvn.PathInformed, bgpvn.ExitEarly, bgpvn.ProxyInformed}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			net, err := topology.TransitStub(3, 3, 0.4, topology.GenConfig{Seed: seed, RoutersPerDomain: 3, HostsPerDomain: 3})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Option: anycast.Option1, Egress: policies[seed%3]}
			if seed%2 == 0 {
				cfg.Option, cfg.DefaultAS = anycast.Option2, net.DomainByName("T0").ASN
			}
			live, err := New(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			live.DeployDomain(net.DomainByName("T0").ASN, 0)
			live.DeployDomain(net.ASNs()[4], 2)

			rng := rand.New(rand.NewSource(seed))
			host := func() *topology.Host { return net.Hosts[rng.Intn(len(net.Hosts))] }
			set := map[topology.HostID]bool{}
			type intraLink struct {
				a, b topology.RouterID
				lat  int64
			}
			var downIntra []intraLink
			var downInter []topology.InterLink
			var providers []topology.ASN
			provAddrs := []addr.V4{live.AnycastAddr()}
			var adverts []advert
			// target is a participant half the time, any domain otherwise.
			target := func() topology.ASN {
				if ms := live.Dep.Members(); len(ms) > 0 && rng.Intn(2) == 0 {
					return net.DomainOf(ms[rng.Intn(len(ms))])
				}
				asns := net.ASNs()
				return asns[rng.Intn(len(asns))]
			}

			for step := 0; step < 40; step++ {
				var what string
				switch op := rng.Intn(11); op {
				case 0, 1:
					h := host()
					what = fmt.Sprintf("register h%d", h.ID)
					if live.RegisterEndhost(h) == nil {
						set[h.ID] = true
					}
				case 2:
					batch := make([]*topology.Host, rng.Intn(6))
					for i := range batch {
						batch[i] = host()
					}
					what = fmt.Sprintf("register batch of %d", len(batch))
					if live.RegisterEndhosts(batch) == nil {
						for _, h := range batch {
							set[h.ID] = true
						}
					}
				case 3, 4:
					h := host()
					what = fmt.Sprintf("unregister h%d (registered=%v)", h.ID, set[h.ID])
					live.UnregisterEndhost(h)
					delete(set, h.ID)
				case 5:
					r := topology.RouterID(rng.Intn(len(net.Routers)))
					what = fmt.Sprintf("deploy r%d", r)
					live.DeployRouter(r)
				case 6:
					if ms := live.Dep.Members(); len(ms) > 0 {
						r := ms[rng.Intn(len(ms))]
						what = fmt.Sprintf("undeploy r%d", r)
						live.UndeployRouter(r)
					}
				case 7:
					if rng.Intn(2) == 0 {
						a := topology.RouterID(rng.Intn(len(net.Routers)))
						for _, e := range net.Intra.Neighbors(int(a)) {
							b := topology.RouterID(e.To)
							what = fmt.Sprintf("fail intra r%d–r%d", a, b)
							live.FailIntraLink(a, b)
							downIntra = append(downIntra, intraLink{a, b, e.Weight})
							break
						}
					} else if len(net.Inter) > 0 {
						l := net.Inter[rng.Intn(len(net.Inter))]
						what = fmt.Sprintf("fail inter r%d–r%d", l.From, l.To)
						if l, ok := live.FailInterLink(l.From, l.To); ok {
							downInter = append(downInter, l)
						}
					}
				case 8:
					if n := len(downIntra); n > 0 && rng.Intn(2) == 0 {
						l := downIntra[n-1]
						downIntra = downIntra[:n-1]
						what = fmt.Sprintf("restore intra r%d–r%d", l.a, l.b)
						live.RestoreIntraLink(l.a, l.b, l.lat)
					} else if n := len(downInter); n > 0 {
						l := downInter[n-1]
						downInter = downInter[:n-1]
						what = fmt.Sprintf("restore inter r%d–r%d", l.From, l.To)
						live.RestoreInterLink(l)
					}
				case 9:
					a := advert{asn: target()}
					for _, nb := range net.Neighbors(a.asn) {
						a.nbrs = append(a.nbrs, nb.ASN)
					}
					err := live.AdvertiseToNeighbors(a.asn, a.nbrs...)
					what = fmt.Sprintf("advertise from AS%d (err=%v)", a.asn, err)
					if err == nil {
						adverts = append(adverts, a)
					} else if cfg.Option == anycast.Option2 && live.Participates(a.asn) {
						t.Fatalf("step %d: %s", step, what)
					}
				case 10:
					asn := target()
					a, err := live.EnableProviderChoice(asn)
					what = fmt.Sprintf("enable provider AS%d (err=%v)", asn, err)
					if err == nil && !slices.Contains(providers, asn) {
						providers = append(providers, asn)
						provAddrs = append(provAddrs, a)
					}
				}
				if what == "" {
					continue
				}
				twin := registrationTwin(t, live, set, providers, adverts)
				at := fmt.Sprintf("step %d (%s)", step, what)

				lerr, terr := live.Ready(), twin.Ready()
				if (lerr != nil) != (terr != nil) {
					t.Fatalf("%s: live epoch err=%v, twin err=%v", at, lerr, terr)
				}
				var ref *bgpvn.System
				if lerr == nil {
					ref = referenceRoutes(t, live, set)
					for _, h := range net.Hosts {
						la, _ := live.HostVNAddr(h)
						ta, _ := twin.HostVNAddr(h)
						if la.IsSelf() != ta.IsSelf() {
							t.Fatalf("%s: h%d self-addressed live=%v twin=%v", at, h.ID, la.IsSelf(), ta.IsSelf())
						}
						for _, m := range live.Dep.Members() {
							le, lrule, lerr := live.Route(m, h)
							te, trule, terr := twin.Route(m, h)
							re, rrule, rerr := ref.Route(m, la, h.Addr, -1, cfg.Egress)
							if lerr != terr || lerr != rerr || lrule != trule || lrule != rrule ||
								le.Member != te.Member || le.Member != re.Member || le.BoneCost != te.BoneCost || le.BoneCost != re.BoneCost {
								t.Fatalf("%s: Route(r%d, h%d registered=%v): live r%d/%d %q err=%v, twin r%d/%d %q err=%v, reference r%d/%d %q err=%v",
									at, m, h.ID, set[h.ID], le.Member, le.BoneCost, lrule, lerr, te.Member, te.BoneCost, trule, terr, re.Member, re.BoneCost, rrule, rerr)
							}
						}
					}
				}
				if lp, tp := live.ProviderChoices(), twin.ProviderChoices(); !reflect.DeepEqual(lp, tp) {
					t.Fatalf("%s: provider choices live %v, twin %v", at, lp, tp)
				}
				for _, asn := range providers {
					if lm, tm := live.ProviderMembers(asn), twin.ProviderMembers(asn); !reflect.DeepEqual(lm, tm) {
						t.Fatalf("%s: AS%d provider members live %v, twin %v", at, asn, lm, tm)
					}
				}
				for _, a := range provAddrs {
					for _, r := range net.Routers {
						lres, lerr := live.ResolveAnycast(r.ID, a)
						tres, terr := twin.ResolveAnycast(r.ID, a)
						if (lerr != nil) != (terr != nil) || !reflect.DeepEqual(lres, tres) {
							t.Fatalf("%s: ResolveAnycast(r%d, %s): live r%d %v err=%v, twin r%d %v err=%v",
								at, r.ID, a, lres.Member, lres.ASPath, lerr, tres.Member, tres.ASPath, terr)
						}
					}
				}
				for i := 0; i < 16; i++ {
					src, dst := host(), host()
					if src == dst {
						continue
					}
					ld, ldet, lerr := egressDetailOf(live, src, dst)
					td, tdet, terr := egressDetailOf(twin, src, dst)
					if (lerr != nil) != (terr != nil) {
						t.Fatalf("%s: h%d→h%d live err=%v, twin err=%v", at, src.ID, dst.ID, lerr, terr)
					}
					if ld.Ingress.Member != td.Ingress.Member || ld.Ingress.Cost != td.Ingress.Cost ||
						ld.Egress.Member != td.Egress.Member || ldet != tdet || ld.TotalCost != td.TotalCost {
						t.Fatalf("%s: h%d→h%d live ingress r%d/%d egress r%d %q total %d; twin ingress r%d/%d egress r%d %q total %d",
							at, src.ID, dst.ID,
							ld.Ingress.Member, ld.Ingress.Cost, ld.Egress.Member, ldet, ld.TotalCost,
							td.Ingress.Member, td.Ingress.Cost, td.Egress.Member, tdet, td.TotalCost)
					}
					if lerr != nil || ref == nil {
						continue
					}
					if re, rrule, _ := ref.Route(ld.Ingress.Member, ld.DstVN, dst.Addr, -1, cfg.Egress); re.Member != ld.Egress.Member || rrule != ldet {
						t.Fatalf("%s: h%d→h%d egress r%d %q, reference r%d %q", at, src.ID, dst.ID, ld.Egress.Member, ldet, re.Member, rrule)
					}
					// A provider's ingress changes where the packet enters the
					// bone, never which domain carries a registrant's /128.
					for _, asn := range providers {
						vd, err := live.SendVia(src, dst, asn, nil)
						if err != nil {
							continue
						}
						if re, _, _ := ref.Route(vd.Ingress.Member, vd.DstVN, dst.Addr, -1, cfg.Egress); re.Member != vd.Egress.Member {
							t.Fatalf("%s: h%d→h%d via AS%d: egress r%d, reference r%d", at, src.ID, dst.ID, asn, vd.Egress.Member, re.Member)
						}
					}
				}
			}
		})
	}
}

// TestResolutionSharedPerAttachRouter: the redirect decision belongs to
// the attach router. Two hosts behind one router share one cache entry —
// the second host's first send is a hit — yet each delivery carries its
// own host's access-link cost; and a registration fills the same cache,
// so a registered host's first send is a hit too.
func TestResolutionSharedPerAttachRouter(t *testing.T) {
	b := topology.NewBuilder()
	dP := b.AddDomain("P")
	dC := b.AddDomain("C")
	rP := b.AddRouters(dP, 2)
	rC := b.AddRouters(dC, 2)
	b.IntraLink(rP[0], rP[1], 2)
	b.IntraLink(rC[0], rC[1], 3)
	b.Provide(rP[1], rC[0], 10)
	near := b.AddHost(dC, rC[1], "near", 1)
	far := b.AddHost(dC, rC[1], "far", 7)
	other := b.AddHost(dC, rC[0], "other", 2)
	dst := b.AddHost(dP, rP[0], "server", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployDomain(dP.ASN, 0)

	send := func(src *topology.Host, wantHit bool) {
		t.Helper()
		before := evo.Snapshot()
		d, err := evo.Send(src, dst, []byte("x"))
		if err != nil {
			t.Fatalf("send from %s: %v", src.Name, err)
		}
		delta := evo.Snapshot().Sub(before)
		if hit := delta.RedirectCacheHits == 1; delta.Redirects != 1 || hit != wantHit {
			t.Errorf("first send from %s: %d redirect decisions, cache hit=%v, want hit=%v", src.Name, delta.Redirects, hit, wantHit)
		}
		want, err := evo.Anycast.ResolveFromRouterVia(evo.Dep, src.Attach)
		if err != nil {
			t.Fatal(err)
		}
		if wantCost := want.Cost + src.AccessLatency; d.Ingress.Member != want.Member || d.Ingress.Cost != wantCost {
			t.Errorf("%s: ingress r%d cost %d, ResolveFromRouterVia + access link says r%d cost %d",
				src.Name, d.Ingress.Member, d.Ingress.Cost, want.Member, wantCost)
		}
	}
	send(near, false)
	send(far, true)
	if err := evo.RegisterEndhost(other); err != nil {
		t.Fatal(err)
	}
	send(other, true)
}

// TestSingleRegistrationCopiesOneBitset: on a world with 20 000
// registered hosts, registering one more host allocates one copy of the
// registered set (one bit per host) and a fresh flow cache — no route
// table, and nothing per registered host.
func TestSingleRegistrationCopiesOneBitset(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000-host world")
	}
	net, err := topology.TransitStub(4, 99, 0.3, topology.GenConfig{Seed: 5, RoutersPerDomain: 2, HostsPerDomain: 50})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option2, DefaultAS: net.DomainByName("T0").ASN})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		evo.DeployDomain(net.DomainByName(fmt.Sprintf("T%d", i)).ASN, 0)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one := net.Hosts[len(net.Hosts)-1]
	fleet := allocated(func() {
		if err := evo.RegisterEndhosts(net.Hosts); err != nil {
			t.Fatal(err)
		}
	})
	evo.UnregisterEndhost(one)
	single := allocated(func() {
		if err := evo.RegisterEndhost(one); err != nil {
			t.Fatal(err)
		}
	})
	if _, detail, err := egressDetailOf(evo, net.Hosts[0], one); err != nil || detail != trace.EgressRegistered {
		t.Fatalf("send to the re-registered host: egress %q, err %v", detail, err)
	}
	bitset := uint64(8 * ((len(net.Hosts) + 63) / 64))
	t.Logf("RegisterEndhosts(%d hosts) allocated %d B, one RegisterEndhost %d B (the set is %d B)", len(net.Hosts), fleet, single, bitset)
	if single > bitset+4096 {
		t.Errorf("one registration allocated %d B, more than the %d B set plus 4 KB", single, bitset)
	}
}

// TestRegistrationStormBesideSenders: 64 senders loop Send while one
// goroutine registers and unregisters hosts singly and in batches. No
// send may fail, and every delivery to a toggled host must be whole: via
// its registered /128 with the egress native routing picks, or via the
// configured egress policy with the egress that policy picks — never the
// detail of one epoch with the egress of another.
func TestRegistrationStormBesideSenders(t *testing.T) {
	net, evo := transitStubEvo(t)
	// Hosts of the five undeployed stubs are self-addressed: registering
	// them changes how they are reached.
	var toggled []*topology.Host
	for _, asn := range net.ASNs()[7:] {
		toggled = append(toggled, net.HostsIn(asn)...)
	}
	srcs := net.Hosts[:8]

	// Both whole answers per (src, dst), learned with the fleet fully
	// unregistered and fully registered; registrations do not interact.
	type answer struct {
		detail string
		egress topology.RouterID
		total  int64
	}
	type pair struct{ src, dst topology.HostID }
	learn := func() map[pair]answer {
		out := map[pair]answer{}
		for _, s := range srcs {
			for _, d := range toggled {
				dl, detail, err := egressDetailOf(evo, s, d)
				if err != nil {
					t.Fatalf("learning h%d→h%d: %v", s.ID, d.ID, err)
				}
				out[pair{s.ID, d.ID}] = answer{detail, dl.Egress.Member, dl.TotalCost}
			}
		}
		return out
	}
	unregistered := learn()
	if err := evo.RegisterEndhosts(toggled); err != nil {
		t.Fatal(err)
	}
	registered := learn()
	for _, h := range toggled {
		evo.UnregisterEndhost(h)
	}
	for p, a := range registered {
		if a.detail != trace.EgressRegistered || unregistered[p].detail != evo.Config().Egress.String() {
			t.Fatalf("h%d→h%d: details %q / %q", p.src, p.dst, a.detail, unregistered[p].detail)
		}
	}

	// stop ends the senders; a sender that fails sets it too, so the storm
	// below never waits on senders that have given up.
	var stop atomic.Bool
	var wg sync.WaitGroup
	var sends atomic.Int64
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				s, d := srcs[i%len(srcs)], toggled[(i/len(srcs))%len(toggled)]
				dl, detail, err := egressDetailOf(evo, s, d)
				if err != nil {
					t.Errorf("send h%d→h%d beside the storm: %v", s.ID, d.ID, err)
					stop.Store(true)
					return
				}
				got := answer{detail, dl.Egress.Member, dl.TotalCost}
				p := pair{s.ID, d.ID}
				if got != registered[p] && got != unregistered[p] {
					t.Errorf("torn delivery h%d→h%d: %+v is neither the registered %+v nor the policy %+v",
						s.ID, d.ID, got, registered[p], unregistered[p])
					stop.Store(true)
					return
				}
				sends.Add(1)
			}
		}(g)
	}
	// At least 300 mutations, and as many more as it takes for the senders
	// to have got 5000 sends in beside them.
	rng := rand.New(rand.NewSource(7))
	for round := 0; (round < 300 || sends.Load() < 5000) && !stop.Load(); round++ {
		switch rng.Intn(3) {
		case 0:
			_ = evo.RegisterEndhost(toggled[rng.Intn(len(toggled))])
		case 1:
			evo.UnregisterEndhost(toggled[rng.Intn(len(toggled))])
		case 2:
			lo := rng.Intn(len(toggled))
			hi := lo + rng.Intn(len(toggled)-lo)
			_ = evo.RegisterEndhosts(toggled[lo:hi])
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
}
