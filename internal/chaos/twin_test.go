package chaos

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// twinScenario is the world TestIncrementalMatchesFromScratch drives: a
// 12-domain transit–stub internet with 3 routers and 3 hosts per domain,
// option 1 on odd seeds and option 2 defaulting to T0 on even ones, the
// egress policy picked by seed, and T0 deployed whole plus 2 routers of
// a fifth domain.
func twinScenario(seed int64) Scenario {
	policies := []bgpvn.EgressPolicy{bgpvn.PathInformed, bgpvn.ExitEarly, bgpvn.ProxyInformed}
	return Scenario{
		Name: fmt.Sprintf("transit-stub-12/seed=%d", seed),
		Build: func() (*topology.Network, *core.Evolution, error) {
			net, err := topology.TransitStub(3, 3, 0.4, topology.GenConfig{Seed: seed, RoutersPerDomain: 3, HostsPerDomain: 3})
			if err != nil {
				return nil, nil, err
			}
			t0 := net.DomainByName("T0").ASN
			cfg := core.Config{Option: anycast.Option1, Egress: policies[seed%3]}
			if seed%2 == 0 {
				cfg.Option, cfg.DefaultAS = anycast.Option2, t0
			}
			evo, err := core.New(net, cfg)
			if err != nil {
				return nil, nil, err
			}
			evo.DeployDomain(t0, 0)
			evo.DeployDomain(net.ASNs()[4], 2)
			return net, evo, nil
		},
	}
}

// referenceRoutes is registration as a per-host route table, the form
// the routing epochs once built: a fresh BGPvN system on evo's bone with
// one /128 for every registered self-addressed host, advertised by the
// domain its attach router's anycast resolution lands in. Queried with no
// origin, its Route is what the registrants' origins must reproduce.
func referenceRoutes(t *testing.T, w *World) *bgpvn.System {
	t.Helper()
	evo := w.Evo
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
		if !w.Registered(h.ID) || !v.IsSelf() {
			continue
		}
		if res, err := evo.ResolveAnycast(h.Attach, evo.AnycastAddr()); err == nil {
			ref.AdvertiseNative(addr.HostVNPrefix(v), evo.Net.DomainOf(res.Member))
		}
	}
	return ref
}

// holdToReference holds a usable live epoch to referenceRoutes: Route from
// every bone member to every host, and the egress of sampled deliveries —
// through every enabled provider's address too, since a provider's
// ingress changes where a packet enters the bone, never which domain
// carries a registrant's /128.
func holdToReference(t *testing.T, w *World, rng *rand.Rand, at string) {
	t.Helper()
	live := w.Evo
	if live.Ready() != nil {
		return
	}
	ref := referenceRoutes(t, w)
	policy := live.Config().Egress
	bone, _ := live.Bone()
	for _, h := range w.Net.Hosts {
		v, _ := live.HostVNAddr(h)
		for _, m := range bone.Members() {
			le, lrule, lerr := live.Route(m, h)
			re, rrule, rerr := ref.Route(m, v, h.Addr, -1, policy)
			if lrule != rrule || le.Member != re.Member || le.BoneCost != re.BoneCost || errText(lerr) != errText(rerr) {
				t.Fatalf("%s: Route(r%d, h%d registered=%v): live r%d/%d %q err=%v, reference r%d/%d %q err=%v",
					at, m, h.ID, w.Registered(h.ID), le.Member, le.BoneCost, lrule, lerr, re.Member, re.BoneCost, rrule, rerr)
			}
		}
	}
	hosts := w.Net.Hosts
	for i := 0; i < 16; i++ {
		src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		rec := trace.NewRecorder()
		d, err := live.SendTraced(src, dst, nil, rec)
		if err != nil {
			continue
		}
		detail := ""
		for _, ev := range rec.Events() {
			if ev.Kind == trace.KindEgress {
				detail = ev.Detail
			}
		}
		if re, rrule, _ := ref.Route(d.Ingress.Member, d.DstVN, dst.Addr, -1, policy); re.Member != d.Egress.Member || rrule != detail {
			t.Fatalf("%s: h%d→h%d egress r%d %q, reference r%d %q", at, src.ID, dst.ID, d.Egress.Member, detail, re.Member, rrule)
		}
		for _, p := range w.providers {
			vd, err := live.SendVia(src, dst, p.asn, nil)
			if err != nil {
				continue
			}
			if re, _, _ := ref.Route(vd.Ingress.Member, vd.DstVN, dst.Addr, -1, policy); re.Member != vd.Egress.Member {
				t.Fatalf("%s: h%d→h%d via AS%d: egress r%d, reference r%d", at, src.ID, dst.ID, p.asn, vd.Egress.Member, re.Member)
			}
		}
	}
}

// TestIncrementalMatchesFromScratch is the one from-scratch property:
// seeded worlds driven through Generate's schedules — link events,
// membership changes (whole domains leaving and rejoining among them),
// single and per-domain registrations, withdrawals, peering adverts and
// provider choices — must, after every event, answer everything an epoch
// answers as World.buildOracle's twin does (the oracle, ua and bone
// invariants), and route registrants as referenceRoutes' per-host table
// does.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			step := 0
			holdAfterApply := func(w *World, ev Event) {
				w.Apply(ev)
				holdToReference(t, w, rng, fmt.Sprintf("step %d (%s)", step, ev))
				step++
			}
			rep, err := Run(twinScenario(seed), seed, 40, Options{Invariants: []string{"oracle", "ua", "bone"}, apply: holdAfterApply})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Violation != nil {
				t.Fatal(FormatReport(rep))
			}
			if rep.EventsApplied != 40 {
				t.Fatalf("applied %d events, want 40", rep.EventsApplied)
			}
		})
	}
}
