// Quickstart: one ISP deploys IPv8; two hosts whose own providers have
// never heard of it exchange IPv8 packets anyway (universal access).
package main

import (
	"fmt"
	"log"

	"github.com/evolvable-net/evolve"
)

func main() {
	log.SetFlags(0)

	// A small internet: 2 transit ISPs, 3 stub ISPs each, 2 hosts per ISP.
	net, err := evolve.TransitStub(2, 3, 0.3, evolve.GenConfig{
		Seed:           1,
		HostsPerDomain: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("internet: %d ISPs, %d routers, %d hosts\n",
		len(net.ASNs()), len(net.Routers), len(net.Hosts))

	// IPv8 arrives. Exactly one ISP (the first transit) deploys it,
	// using the paper's option-2 anycast rooted in its own address block.
	evo, err := evolve.New(net, evolve.Config{
		Version:   8,
		Option:    evolve.Option2,
		DefaultAS: net.DomainByName("T0").ASN,
	})
	if err != nil {
		log.Fatal(err)
	}
	evo.DeployDomain(net.DomainByName("T0").ASN, 0)
	fmt.Printf("IPv8 deployed only in %s; well-known anycast address %s\n",
		"T0", evo.AnycastAddr())

	// Two hosts in stub ISPs that did NOT deploy. Their IPv8 addresses
	// are temporary self-addresses derived from their IPv4 addresses.
	src := net.HostsIn(net.DomainByName("S0.0").ASN)[0]
	dst := net.HostsIn(net.DomainByName("S1.2").ASN)[0]
	srcVN, _ := evo.HostVNAddr(src)
	dstVN, _ := evo.HostVNAddr(dst)
	fmt.Printf("src %s: IPv4 %s → IPv8 %s\n", src.Name, src.Addr, srcVN)
	fmt.Printf("dst %s: IPv4 %s → IPv8 %s\n", dst.Name, dst.Addr, dstVN)

	// Send an IPv8 packet: encapsulated toward the anycast address,
	// captured by T0's closest IPv8 router, carried over the vN-Bone,
	// tunnelled the rest of the way over IPv4. A trace recorder attached
	// to this one send captures every leg of it.
	rec := evolve.NewTraceRecorder()
	d, err := evo.SendTraced(src, dst, []byte("hello, next generation"), rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndelivered %q\n", d.Payload)
	fmt.Printf("  ingress:  IPv8 router %s (cost %d)\n",
		net.Router(d.Ingress.Member).Name, d.Ingress.Cost)
	fmt.Printf("  vN-Bone:  %d virtual hops (cost %d)\n", d.VNHops, d.Egress.BoneCost)
	fmt.Printf("  tail:     IPv4 tunnel to destination (cost %d)\n", d.TailCost)
	fmt.Printf("  total %d vs direct IPv4 %d → stretch %.2f\n",
		d.TotalCost, d.BaselineCost, d.Stretch)

	fmt.Printf("\nfull trace:\n%s", evo.FormatTrace(rec.Events()))
}
