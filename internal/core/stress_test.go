package core

import (
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/topology"
)

// TestScaleBarabasiAlbert runs the whole stack on a larger internet than
// the experiments use: 80 domains in a heavy-tailed provider hierarchy,
// 240 routers, partial deployment, full universal-access sampling.
func TestScaleBarabasiAlbert(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	net, err := topology.BarabasiAlbert(80, 2, topology.GenConfig{
		Seed: 4242, RoutersPerDomain: 3, HostsPerDomain: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option1})
	if err != nil {
		t.Fatal(err)
	}
	// The hub and two leaves deploy.
	evo.DeployDomain(net.ASNs()[0], 0)
	evo.DeployDomain(net.ASNs()[40], 0)
	evo.DeployDomain(net.ASNs()[79], 0)

	bone, err := evo.Bone()
	if err != nil {
		t.Fatal(err)
	}
	if !bone.Connected() {
		t.Fatal("bone disconnected at scale")
	}
	sample, failures, err := evo.StretchSample(2000)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Errorf("%d failed deliveries at scale", failures)
	}
	if len(sample) == 0 {
		t.Fatal("empty sample")
	}
	for _, s := range sample {
		if s <= 0 {
			t.Fatalf("nonpositive stretch %v", s)
		}
	}
	// Every domain's anycast traffic lands in a participant.
	for _, asn := range net.ASNs() {
		res, err := evo.ResolveAnycast(net.Domain(asn).Routers[0], evo.AnycastAddr())
		if err != nil {
			t.Errorf("AS%d unresolved at scale: %v", asn, err)
		} else if !evo.Participates(net.DomainOf(res.Member)) {
			t.Errorf("AS%d captured by non-participant AS%d", asn, net.DomainOf(res.Member))
		}
	}
}

// TestScaleTransitStubOption2 repeats at scale for option 2 with failures
// injected mid-run.
func TestScaleTransitStubOption2(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	net, err := topology.TransitStub(4, 10, 0.4, topology.GenConfig{
		Seed: 99, RoutersPerDomain: 3, HostsPerDomain: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: anycast.Option2, DefaultAS: net.DomainByName("T0").ASN})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range net.ASNs() {
		if i%3 == 0 {
			evo.DeployDomain(asn, 0)
		}
	}
	if _, failures, err := evo.StretchSample(1500); err != nil || failures != 0 {
		t.Fatalf("pre-failure: %v (%d failures)", err, failures)
	}
	// Fail a transit-to-stub link; the multihomed internet keeps working
	// for all but possibly single-homed victims.
	link := net.Inter[len(net.Inter)-1]
	if _, ok := evo.FailInterLink(link.From, link.To); !ok {
		t.Fatal("link not found")
	}
	sample, _, err := evo.StretchSample(1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) == 0 {
		t.Fatal("no deliveries after failure")
	}
}

// TestSendDuringInterLinkFlap sends from a multihomed stub while one of
// its provider links flaps as fast as the mutator can go. Every flow
// routes before, during and after each event (the other provider is
// always there), so no send may fail — in particular not on the
// forwarding state a mutator has half edited, between its topology change
// and the BGP refresh, which a flow-cache miss reads in place. The
// fallback arm keeps pushing its flows into the fallback state (three
// unacked signals in a row), so the baseline-only delivery path computes
// under the same flaps.
func TestSendDuringInterLinkFlap(t *testing.T) {
	for _, arm := range []struct {
		name string
		cfg  Config
	}{
		{"failfast", Config{Option: anycast.Option1}},
		{"fallback", Config{Option: anycast.Option1, Fallback: true}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			b := topology.NewBuilder()
			dP1, dP2, dC := b.AddDomain("P1"), b.AddDomain("P2"), b.AddDomain("C")
			rP1, rP2, rC := b.AddRouters(dP1, 2), b.AddRouters(dP2, 2), b.AddRouters(dC, 2)
			b.IntraLink(rP1[0], rP1[1], 2)
			b.IntraLink(rP2[0], rP2[1], 2)
			b.IntraLink(rC[0], rC[1], 2)
			b.Provide(rP1[1], rC[0], 10)
			b.Provide(rP2[1], rC[1], 30)
			b.Peer(rP1[0], rP2[0], 10)
			var srcs, dsts []*topology.Host
			for i := 0; i < 4; i++ {
				srcs = append(srcs, b.AddHost(dC, rC[i%2], "", 1))
				dsts = append(dsts, b.AddHost(dP1, rP1[i%2], "", 1), b.AddHost(dP2, rP2[i%2], "", 1))
			}
			net, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			evo, err := New(net, arm.cfg)
			if err != nil {
				t.Fatal(err)
			}
			evo.DeployDomain(net.DomainByName("P1").ASN, 0)
			evo.DeployDomain(net.DomainByName("P2").ASN, 0)

			stop := make(chan struct{})
			flapped := make(chan int)
			go func() {
				n := 0
				for {
					select {
					case <-stop:
						flapped <- n
						return
					default:
					}
					l, ok := evo.FailInterLink(rP1[1], rC[0])
					if !ok {
						t.Error("provider link not found")
						flapped <- n
						return
					}
					evo.RestoreInterLink(l)
					n++
				}
			}()

			sends := 20000
			if testing.Short() {
				sends = 5000
			}
			failures := 0
			for i := 0; i < sends; i++ {
				src, dst := srcs[i%len(srcs)], dsts[(i/len(srcs))%len(dsts)]
				d, err := evo.Send(src, dst, []byte("flap"))
				if err != nil {
					if failures++; failures <= 3 {
						t.Errorf("send %d (%s→%s): %v", i, src.Name, dst.Name, err)
					}
					continue
				}
				if arm.cfg.Fallback && i%4 == 0 {
					for k := 0; k < 3; k++ {
						evo.ReportUnackedVN(d.DstVN)
					}
				}
			}
			close(stop)
			if n := <-flapped; n == 0 {
				t.Error("the mutator never completed a flap beside the sends")
			}
			if failures > 0 {
				t.Errorf("%d of %d sends failed", failures, sends)
			}
			if s := evo.Snapshot(); arm.cfg.Fallback && s.DeliveryFallbackSends == s.DeliveryFallbackRescues {
				t.Errorf("no flow ever sent from the fallback state (%d fallback sends, %d rescues)",
					s.DeliveryFallbackSends, s.DeliveryFallbackRescues)
			}
		})
	}
}
