package core

import (
	"reflect"
	"testing"

	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// TestColdSendDerivesItsDecisions holds what a cold send reports to the
// decisions it derives from, under every rule that can pick an egress —
// native, registered and each policy: Delivery.Egress is ep.vn.Route's
// Egress field by field, Delivery.Ingress is the redirect cache's
// resolution plus the source's access link, and the KindEgress span
// carries Route's rule. A flow entry keeps only the egress member, policy
// and rule of that decision; the rest is derived when the flow is
// materialized.
func TestColdSendDerivesItsDecisions(t *testing.T) {
	seen, crossed := map[string]int{}, map[string]int{}
	for _, policy := range []bgpvn.EgressPolicy{bgpvn.ExitEarly, bgpvn.PathInformed, bgpvn.ProxyInformed} {
		n := world(t)
		e := newEvo(t, n, Config{Egress: policy})
		e.DeployDomain(n.DomainByName("T0").ASN, 0)
		e.DeployDomain(n.DomainByName("S0.0").ASN, 0)
		var reg []*topology.Host
		for i, h := range n.Hosts {
			if e.epoch.Load().addrOf(h).IsSelf() && i%2 == 0 {
				reg = append(reg, h)
			}
		}
		if err := e.RegisterEndhosts(reg); err != nil {
			t.Fatal(err)
		}
		ep := e.epoch.Load()
		before := e.Snapshot()
		for _, src := range n.Hosts {
			for _, dst := range n.Hosts {
				if src == dst {
					continue
				}
				rec := trace.NewRecorder()
				d, err := e.SendTraced(src, dst, nil, rec)
				if err != nil {
					t.Fatalf("%v: %s→%s: %v", policy, src.Name, dst.Name, err)
				}

				res, _, err := e.resolveAt(ep, ep.dep, src.Attach, false)
				if err != nil {
					t.Fatal(err)
				}
				ing := *res
				ing.Cost += src.AccessLatency
				if !reflect.DeepEqual(d.Ingress, ing) {
					t.Errorf("%v: %s→%s: Ingress %+v, redirect cache plus access link %+v", policy, src.Name, dst.Name, d.Ingress, ing)
				}

				dstVN := ep.addrOf(dst)
				origin := topology.ASN(-1)
				if dstVN.IsSelf() && ep.registered.has(dst.ID) {
					if o, _, err := e.resolveAt(ep, ep.dep, dst.Attach, false); err == nil {
						origin = n.DomainOf(o.Member)
					}
				}
				eg, rule, err := ep.vn.Route(res.Member, dstVN, dst.Addr, origin, policy)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(d.Egress, eg) {
					t.Errorf("%v: %s→%s: Egress %+v, Route %+v", policy, src.Name, dst.Name, d.Egress, eg)
				}
				labels := 0
				for _, ev := range rec.Events() {
					if ev.Kind == trace.KindEgress {
						labels++
						if ev.Detail != rule {
							t.Errorf("%v: %s→%s: egress span says %q, Route %q", policy, src.Name, dst.Name, ev.Detail, rule)
						}
					}
				}
				if labels != 1 {
					t.Errorf("%v: %s→%s: %d egress spans", policy, src.Name, dst.Name, labels)
				}
				seen[rule]++
				if d.VNHops > 0 {
					crossed[rule]++
				}
			}
		}
		if d := e.Snapshot().Sub(before); d.DeliveryFlowHits != 0 {
			t.Errorf("%v: %d flow hits, want every send cold", policy, d.DeliveryFlowHits)
		}
	}
	for _, rule := range []string{trace.EgressNative, trace.EgressRegistered, bgpvn.ExitEarly.String(), bgpvn.PathInformed.String(), bgpvn.ProxyInformed.String()} {
		if seen[rule] == 0 {
			t.Errorf("no cold send decided by %q (saw %v)", rule, seen)
		}
		if rule != bgpvn.ExitEarly.String() && crossed[rule] == 0 {
			t.Errorf("no cold send decided by %q crossed the bone (saw %v)", rule, crossed)
		}
	}
	t.Logf("sends per rule: %v; crossing the bone: %v", seen, crossed)
}
