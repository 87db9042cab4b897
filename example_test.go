package evolve_test

import (
	"fmt"

	"github.com/evolvable-net/evolve"
)

// The canonical flow: one ISP deploys IPv8; hosts of non-deploying ISPs
// exchange IPv8 packets through anycast redirection and the vN-Bone.
func ExampleNew() {
	net, err := evolve.TransitStub(2, 3, 0.3, evolve.GenConfig{Seed: 1, HostsPerDomain: 2})
	if err != nil {
		panic(err)
	}
	evo, err := evolve.New(net, evolve.Config{
		Version:   8,
		Option:    evolve.Option2,
		DefaultAS: net.DomainByName("T0").ASN,
	})
	if err != nil {
		panic(err)
	}
	evo.DeployDomain(net.DomainByName("T0").ASN, 0)

	src := net.HostsIn(net.DomainByName("S0.0").ASN)[0]
	dst := net.HostsIn(net.DomainByName("S1.2").ASN)[0]
	d, err := evo.Send(src, dst, []byte("hello IPv8"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("delivered %q with stretch %.2f\n", d.Payload, d.Stretch)
	// Output: delivered "hello IPv8" with stretch 1.00
}

// Self-addressing derives a host's temporary IPvN address from its
// underlay address; the mapping is injective and reversible.
func ExampleSelfAddress() {
	u, _ := evolve.ParseV4("10.1.2.3")
	v := evolve.SelfAddress(u)
	back, ok := v.Underlay()
	fmt.Println(v, ok, back)
	// Output: self:10.1.2.3 true 10.1.2.3
}

// Hand-built scenario topologies use the Builder, as the paper's figure
// reproductions do.
func ExampleNewBuilder() {
	b := evolve.NewBuilder()
	x := b.AddDomain("X")
	z := b.AddDomain("Z")
	rx := b.AddRouter(x, "X-border")
	rz := b.AddRouter(z, "Z-border")
	b.Provide(rx, rz, 10) // X provides transit to Z
	b.AddHost(z, rz, "client", 1)
	net, err := b.Build()
	if err != nil {
		panic(err)
	}
	fmt.Println(len(net.ASNs()), "domains,", len(net.Hosts), "host")
	// Output: 2 domains, 1 host
}

// The adoption-dynamics model reproduces the paper's §2.1 argument: with
// universal access a single first mover triggers full adoption; without
// it the IP-Multicast chicken-and-egg recurs.
func ExampleNewAdoptionModel() {
	net, _ := evolve.TransitStub(2, 2, 0, evolve.GenConfig{Seed: 3, HostsPerDomain: 2})
	withUA, _ := evolve.NewAdoptionModel(evolve.AdoptionParams{UniversalAccess: true}, net)
	withUA.Run()
	withoutUA, _ := evolve.NewAdoptionModel(evolve.AdoptionParams{UniversalAccess: false}, net)
	withoutUA.Run()
	fmt.Printf("with UA: completed=%v; without: stalled=%v\n",
		withUA.Outcome().Completed, withoutUA.Outcome().Stalled)
	// Output: with UA: completed=true; without: stalled=true
}

// Multicast is the payoff capability: hosts in non-deploying ISPs
// subscribe via anycast, and one send reaches them all over a shared
// vN-Bone tree.
func ExampleNewMulticast() {
	net, _ := evolve.TransitStub(3, 3, 0.4, evolve.GenConfig{Seed: 17, RoutersPerDomain: 3, HostsPerDomain: 2})
	evo, _ := evolve.New(net, evolve.Config{Option: evolve.Option1})
	for _, name := range []string{"T0", "T1", "T2"} {
		evo.DeployDomain(net.DomainByName(name).ASN, 0)
	}
	mc := evolve.NewMulticast(evo)
	grp := mc.CreateGroup(1)
	src := net.Hosts[0]
	for _, h := range net.Hosts[1:] {
		if err := mc.Subscribe(grp, h); err != nil {
			panic(err)
		}
	}
	d, err := mc.Deliver(grp, src, []byte("stream"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("reached %d subscribers; multicast beat repeated unicast: %v\n",
		d.Subscribers, d.TotalCost <= d.UnicastCost)
	// Output: reached 23 subscribers; multicast beat repeated unicast: true
}

// A Tracer captures one delivery's span: the anycast redirect decision,
// every vN-Bone hop, the egress selection and each tunnel operation.
// Attach one per delivery with SendTraced, the only way to trace;
// evolution-wide counters are always on via Snapshot. See
// OBSERVABILITY.md for how to read the full per-hop rendering.
func ExampleTracer() {
	net, _ := evolve.TransitStub(2, 3, 0.3, evolve.GenConfig{Seed: 1, HostsPerDomain: 2})
	evo, _ := evolve.New(net, evolve.Config{
		Option:    evolve.Option2,
		DefaultAS: net.DomainByName("T0").ASN,
	})
	evo.DeployDomain(net.DomainByName("T0").ASN, 0)

	src := net.HostsIn(net.DomainByName("S0.0").ASN)[0]
	dst := net.HostsIn(net.DomainByName("S1.2").ASN)[0]
	rec := evolve.NewTraceRecorder()
	if _, err := evo.SendTraced(src, dst, []byte("hi"), rec); err != nil {
		panic(err)
	}
	for _, ev := range rec.Events() {
		fmt.Println(ev.Kind)
	}
	s := evo.Snapshot()
	fmt.Printf("counters: sends=%d deliveries=%d drops=%d\n", s.Sends, s.Deliveries, s.Drops)
	// Output:
	// send
	// encap
	// redirect
	// egress
	// encap
	// decap
	// deliver
	// counters: sends=1 deliveries=1 drops=0
}

// SendTraced with FormatTrace renders one delivery as a numbered per-hop
// listing, in E14's Figure-3 world: src in participant M, destination C
// in non-participant NC behind participant O, C registered as a /128.
// OBSERVABILITY.md reads this listing line by line.
func ExampleEvolution_SendTraced() {
	b := evolve.NewBuilder()
	m := b.AddDomain("M")
	o := b.AddDomain("O")
	nc := b.AddDomain("NC")
	rM := b.AddRouters(m, 2)
	rO := b.AddRouters(o, 2)
	rNC := b.AddRouter(nc, "")
	b.IntraLink(rM[0], rM[1], 1)
	b.IntraLink(rO[0], rO[1], 1)
	b.Peer(rM[1], rO[0], 10)
	b.Provide(rO[1], rNC, 10)
	src := b.AddHost(m, rM[0], "src", 1)
	c := b.AddHost(nc, rNC, "C", 1)
	net, err := b.Build()
	if err != nil {
		panic(err)
	}
	evo, err := evolve.New(net, evolve.Config{Option: evolve.Option1, Egress: evolve.ExitEarly})
	if err != nil {
		panic(err)
	}
	evo.DeployRouter(rM[0])
	evo.DeployRouter(rO[1])
	if err := evo.RegisterEndhost(c); err != nil {
		panic(err)
	}
	rec := evolve.NewTraceRecorder()
	d, err := evo.SendTraced(src, c, []byte("x"), rec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("src → C: cost %d, stretch %.3f, vN hops %d\n", d.TotalCost, d.Stretch, d.VNHops)
	fmt.Print(evo.FormatTrace(rec.Events()))
	// Output:
	// src → C: cost 24, stretch 1.000, vN hops 1
	//    0  send     M-r0 (AS1)
	//    1  encap    outer 0.1.0.3 → 240.0.0.1
	//    2  redirect M-r0 (AS1) cost=1
	//    3  egress   O-r1 (AS2) cost=12 [registered-/128]
	//    4  encap    outer 0.1.0.1 → 0.2.0.2
	//    5  decap    outer 0.1.0.1 → 0.2.0.2
	//    6  bone-hop O-r1 (AS2) cost=12
	//    7  encap    outer 0.2.0.2 → 0.3.0.2
	//    8  decap    outer 0.2.0.2 → 0.3.0.2
	//    9  deliver  NC-r0 (AS3) cost=24
}

// RunExperiment regenerates any of the paper-reproduction tables.
func ExampleRunExperiment() {
	tbl, err := evolve.RunExperiment("E1", 42)
	if err != nil {
		panic(err)
	}
	fmt.Println(tbl.ID, tbl.OK)
	// Output: E1 true
}
