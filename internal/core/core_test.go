package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/vnbone"
)

// world builds a transit-stub internet with hosts everywhere.
func world(t *testing.T) *topology.Network {
	t.Helper()
	n, err := topology.TransitStub(2, 3, 0.3, topology.GenConfig{
		Seed: 99, RoutersPerDomain: 3, HostsPerDomain: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newEvo(t *testing.T, n *topology.Network, cfg Config) *Evolution {
	t.Helper()
	return newEvoShards(t, n, cfg, deliveryShards)
}

// newEvoShards is newEvo at a given shard count, through the constructor
// New itself calls.
func newEvoShards(t *testing.T, n *topology.Network, cfg Config, shards int) *Evolution {
	t.Helper()
	if cfg.Option == 0 {
		cfg.Option = anycast.Option2
	}
	if cfg.Option == anycast.Option2 && cfg.DefaultAS == 0 {
		cfg.DefaultAS = n.DomainByName("T0").ASN
	}
	e, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	n := world(t)
	if _, err := New(n, Config{Option: anycast.Option2, DefaultAS: 9999}); err == nil {
		t.Error("bad DefaultAS accepted")
	}
	if _, err := New(n, Config{Option: anycast.Option(7)}); err == nil {
		t.Error("bad option accepted")
	}
	e, err := New(n, Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().Version != 8 {
		t.Errorf("default version = %d", e.Config().Version)
	}
}

func TestUndeployedRejected(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	if _, err := e.Bone(); !errors.Is(err, ErrNotDeployed) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := e.StretchSample(1); !errors.Is(err, ErrNotDeployed) {
		t.Errorf("err = %v", err)
	}
}

func TestSelfAndNativeAddressing(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	def := n.DomainByName("T0")
	e.DeployDomain(def.ASN, 0)

	for _, h := range n.Hosts {
		v, err := e.HostVNAddr(h)
		if err != nil {
			t.Fatal(err)
		}
		if h.Domain == def.ASN {
			if v.IsSelf() {
				t.Errorf("host %s in participant domain has self address", h.Name)
			}
		} else {
			if !v.IsSelf() {
				t.Errorf("host %s in non-participant domain has native address", h.Name)
			}
			u, _ := v.Underlay()
			if u != h.Addr {
				t.Errorf("host %s self address embeds %s", h.Name, u)
			}
		}
	}
}

func TestRelabelOnAdoption(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	def := n.DomainByName("T0")
	stub := n.DomainByName("S0.0")
	e.DeployDomain(def.ASN, 0)
	h := n.HostsIn(stub.ASN)[0]
	before, err := e.HostVNAddr(h)
	if err != nil {
		t.Fatal(err)
	}
	if !before.IsSelf() {
		t.Fatal("precondition: self-addressed")
	}
	// The stub adopts: its hosts relabel to native addresses.
	e.DeployDomain(stub.ASN, 1)
	after, err := e.HostVNAddr(h)
	if err != nil {
		t.Fatal(err)
	}
	if after.IsSelf() {
		t.Error("host did not relabel on adoption")
	}
	// Native addresses are stable across further deployment changes.
	e.DeployDomain(n.DomainByName("S1.0").ASN, 1)
	again, _ := e.HostVNAddr(h)
	if again != after {
		t.Error("native address changed gratuitously")
	}
	// The stub leaves: its hosts fall back to self-addresses.
	e.UndeployRouter(stub.Routers[0])
	if left, _ := e.HostVNAddr(h); !left.IsSelf() {
		t.Errorf("host kept native address %s after its domain left", left)
	}
	// The stub rejoins: its hosts get their first native addresses back,
	// the ones a world that never saw the history gives them.
	e.DeployDomain(stub.ASN, 1)
	rejoined, _ := e.HostVNAddr(h)
	if rejoined != after {
		t.Errorf("after rejoining: %s, first native address %s", rejoined, after)
	}
	twin := newEvo(t, n, Config{})
	twin.DeployRouters(e.Dep.Members())
	if fresh, err := twin.HostVNAddr(h); err != nil || fresh != rejoined {
		t.Errorf("after rejoining: %s, from scratch %s (err %v)", rejoined, fresh, err)
	}
}

func TestSendSelfToSelf(t *testing.T) {
	// Only the transit T0 deploys; hosts in two different stubs talk.
	n := world(t)
	e := newEvo(t, n, Config{})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	src := n.HostsIn(n.DomainByName("S0.0").ASN)[0]
	dst := n.HostsIn(n.DomainByName("S1.1").ASN)[0]
	payload := []byte("universal access")
	d, err := e.Send(src, dst, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Errorf("payload corrupted: %q", d.Payload)
	}
	if !d.SrcVN.IsSelf() || !d.DstVN.IsSelf() {
		t.Error("expected self addresses on both ends")
	}
	if d.TotalCost <= 0 || d.BaselineCost <= 0 {
		t.Errorf("costs: total %d baseline %d", d.TotalCost, d.BaselineCost)
	}
	if d.Stretch < 1 {
		t.Errorf("stretch %.3f < 1: IPvN path cannot beat the baseline it detours from", d.Stretch)
	}
}

func TestSendNativeToNative(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	s0 := n.DomainByName("S0.0")
	s1 := n.DomainByName("S1.1")
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	e.DeployDomain(s0.ASN, 0)
	e.DeployDomain(s1.ASN, 0)
	src := n.HostsIn(s0.ASN)[0]
	dst := n.HostsIn(s1.ASN)[0]
	d, err := e.Send(src, dst, []byte("native"))
	if err != nil {
		t.Fatal(err)
	}
	if d.SrcVN.IsSelf() || d.DstVN.IsSelf() {
		t.Error("expected native addresses")
	}
	if string(d.Payload) != "native" {
		t.Errorf("payload = %q", d.Payload)
	}
	// Egress must sit in the destination's domain.
	if e.Net.DomainOf(d.Egress.Member) != dst.Domain {
		t.Errorf("egress in AS%d, want dst's AS%d", e.Net.DomainOf(d.Egress.Member), dst.Domain)
	}
}

func TestSendWithinOneDomain(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	s0 := n.DomainByName("S0.0")
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	e.DeployDomain(s0.ASN, 0)
	hosts := n.HostsIn(s0.ASN)
	d, err := e.Send(hosts[0], hosts[1], []byte("local"))
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != "local" {
		t.Errorf("payload = %q", d.Payload)
	}
	// Everything stays inside the domain.
	if len(d.Ingress.ASPath) != 1 {
		t.Errorf("ingress crossed domains: %v", d.Ingress.ASPath)
	}
}

func TestUniversalAccessAllPairs(t *testing.T) {
	// The paper's headline requirement: with a single deployed ISP, every
	// host pair can exchange IPvN packets.
	n := world(t)
	for _, opt := range []anycast.Option{anycast.Option1, anycast.Option2} {
		e := newEvo(t, n, Config{Option: opt})
		e.DeployDomain(n.DomainByName("T0").ASN, 0)
		sample, failures, err := e.StretchSample(0)
		if err != nil {
			t.Fatalf("option %d: %v", opt, err)
		}
		if failures != 0 {
			t.Errorf("option %d: %d failed deliveries", opt, failures)
		}
		want := len(n.Hosts) * (len(n.Hosts) - 1)
		if len(sample) != want {
			t.Errorf("option %d: sample %d, want %d", opt, len(sample), want)
		}
		for _, s := range sample {
			if s < 1 {
				t.Fatalf("option %d: stretch %.3f < 1", opt, s)
			}
		}
	}
}

func TestStretchShrinksAsDeploymentSpreads(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{Egress: bgpvn.PathInformed})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	mean := func() float64 {
		sample, failures, err := e.StretchSample(0)
		if err != nil || failures > 0 {
			t.Fatalf("sample: %v (%d failures)", err, failures)
		}
		var sum float64
		for _, s := range sample {
			sum += s
		}
		return sum / float64(len(sample))
	}
	sparse := mean()
	// Everyone deploys.
	for _, asn := range n.ASNs() {
		e.DeployDomain(asn, 0)
	}
	full := mean()
	if full > sparse {
		t.Errorf("mean stretch grew with deployment: %.3f → %.3f", sparse, full)
	}
	if full != 1 {
		t.Errorf("full deployment should have stretch 1, got %.3f", full)
	}
}

func TestEgressPolicyOrdering(t *testing.T) {
	// Path-informed and proxy-informed egress must not do worse than
	// exit-early on average.
	n := world(t)
	means := map[bgpvn.EgressPolicy]float64{}
	for _, pol := range []bgpvn.EgressPolicy{bgpvn.ExitEarly, bgpvn.PathInformed, bgpvn.ProxyInformed} {
		e := newEvo(t, n, Config{Egress: pol})
		e.DeployDomain(n.DomainByName("T0").ASN, 0)
		e.DeployDomain(n.DomainByName("T1").ASN, 0)
		sample, failures, err := e.StretchSample(0)
		if err != nil || failures > 0 {
			t.Fatalf("policy %s: %v (%d failures)", pol, err, failures)
		}
		var sum float64
		for _, s := range sample {
			sum += s
		}
		means[pol] = sum / float64(len(sample))
	}
	if means[bgpvn.PathInformed] > means[bgpvn.ExitEarly]+1e-9 {
		t.Errorf("path-informed (%.3f) worse than exit-early (%.3f)",
			means[bgpvn.PathInformed], means[bgpvn.ExitEarly])
	}
	if means[bgpvn.ProxyInformed] > means[bgpvn.ExitEarly]+1e-9 {
		t.Errorf("proxy-informed (%.3f) worse than exit-early (%.3f)",
			means[bgpvn.ProxyInformed], means[bgpvn.ExitEarly])
	}
}

func TestIngressShare(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	t0 := n.DomainByName("T0").ASN
	e.DeployDomain(t0, 0)
	share, err := e.IngressShare()
	if err != nil {
		t.Fatal(err)
	}
	if share[t0] != 1.0 {
		t.Errorf("sole participant's share = %.2f, want 1", share[t0])
	}
	// A second participant takes some share (it serves at least its own
	// hosts).
	t1 := n.DomainByName("T1").ASN
	e.DeployDomain(t1, 0)
	share, err = e.IngressShare()
	if err != nil {
		t.Fatal(err)
	}
	if share[t1] <= 0 {
		t.Error("new participant attracted no traffic")
	}
	var sum float64
	for _, f := range share {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %.3f", sum)
	}
}

func TestUndeployReverts(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	def := n.DomainByName("T0")
	s0 := n.DomainByName("S0.0")
	e.DeployDomain(def.ASN, 0)
	e.DeployDomain(s0.ASN, 1)
	h := n.HostsIn(s0.ASN)[0]
	v, _ := e.HostVNAddr(h)
	if v.IsSelf() {
		t.Fatal("precondition")
	}
	for _, m := range e.Dep.MembersIn(s0.ASN) {
		e.UndeployRouter(m)
	}
	v, err := e.HostVNAddr(h)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsSelf() {
		t.Error("host kept native address after its ISP left")
	}
}

func TestDeployDomainPartial(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	t0 := n.DomainByName("T0")
	e.DeployDomain(t0.ASN, 1)
	if got := len(e.Dep.MembersIn(t0.ASN)); got != 1 {
		t.Errorf("members = %d", got)
	}
	e.DeployDomain(t0.ASN, 0)
	if got := len(e.Dep.MembersIn(t0.ASN)); got != len(t0.Routers) {
		t.Errorf("members = %d, want all %d", got, len(t0.Routers))
	}
	// Unknown domain: no-op.
	e.DeployDomain(topology.ASN(9999), 1)
}

func TestBoneAndVNAccessors(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{Bone: vnbone.Config{K: 3}})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	bone, err := e.Bone()
	if err != nil {
		t.Fatal(err)
	}
	if !bone.Connected() {
		t.Error("bone disconnected")
	}
	vn, err := e.VN()
	if err != nil {
		t.Fatal(err)
	}
	if vn != e.epoch.Load().vn {
		t.Error("VN is not the published epoch's")
	}
	if e.AnycastAddr() != e.Dep.Addr {
		t.Error("AnycastAddr mismatch")
	}
}

func TestHopLimitSufficientForLongBones(t *testing.T) {
	// A long chain of participant domains: the delivery must survive many
	// bone hops (hop limit decrements per virtual hop).
	b := topology.NewBuilder()
	var prev topology.RouterID = -1
	var doms []*topology.Domain
	for i := 0; i < 12; i++ {
		d := b.AddDomain(string(rune('A' + i)))
		r := b.AddRouter(d, "")
		doms = append(doms, d)
		if prev >= 0 {
			b.Provide(prev, r, 10)
		}
		prev = r
	}
	b.AddHost(doms[0], doms[0].Routers[0], "src", 1)
	b.AddHost(doms[len(doms)-1], doms[len(doms)-1].Routers[0], "dst", 1)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(n, Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range doms {
		e.DeployDomain(d.ASN, 0)
	}
	d, err := e.Send(n.Hosts[0], n.Hosts[1], []byte("far"))
	if err != nil {
		t.Fatal(err)
	}
	if d.VNHops < 5 {
		t.Errorf("expected a long bone path, got %d hops", d.VNHops)
	}
	if string(d.Payload) != "far" {
		t.Errorf("payload = %q", d.Payload)
	}
}
