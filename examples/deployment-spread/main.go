// Deployment-spread walks the paper's Figure 1 end to end: IPv8 is
// deployed successively in ISPs X, then Y, then Z, and client C in Z is
// seamlessly redirected to the closest IPv8 provider at every stage —
// same anycast destination, no reconfiguration, monotonically better
// service — then keeps going where the figure stops: Z's hosts relabel
// from temporary self-addresses to native IPv8 addresses.
package main

import (
	"fmt"
	"log"

	"github.com/evolvable-net/evolve"
)

func main() {
	log.SetFlags(0)

	// The Figure-1 world: provider chain X → Y → Z with client C in Z.
	b := evolve.NewBuilder()
	dX := b.AddDomain("X")
	dY := b.AddDomain("Y")
	dZ := b.AddDomain("Z")
	rX := b.AddRouters(dX, 2)
	rY := b.AddRouters(dY, 2)
	rZ := b.AddRouters(dZ, 2)
	b.IntraLink(rX[0], rX[1], 2)
	b.IntraLink(rY[0], rY[1], 2)
	b.IntraLink(rZ[0], rZ[1], 2)
	b.Provide(rX[1], rY[0], 10)
	b.Provide(rY[1], rZ[0], 10)
	c := b.AddHost(dZ, rZ[1], "C", 1)
	srv := b.AddHost(dX, rX[0], "server", 1)
	net, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	evo, err := evolve.New(net, evolve.Config{
		Option:    evolve.Option2,
		DefaultAS: dX.ASN, // X moves first and anchors the anycast address
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("well-known IPv8 anycast address: %s (never changes below)\n\n", evo.AnycastAddr())

	stage := func(name string, deploy []evolve.RouterID) {
		for _, r := range deploy {
			evo.DeployRouter(r)
		}
		res, err := evo.ResolveAnycast(c.Attach, evo.AnycastAddr())
		if err != nil {
			log.Fatal(err)
		}
		res.Cost += c.AccessLatency
		cVN, _ := evo.HostVNAddr(c)
		d, err := evo.Send(c, srv, []byte("GET /"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", name)
		fmt.Printf("  C's ingress: %s in ISP %s, redirection cost %d\n",
			net.Router(res.Member).Name,
			net.Domain(net.DomainOf(res.Member)).Name, res.Cost)
		fmt.Printf("  C's IPv8 address: %s\n", cVN)
		fmt.Printf("  C → server delivery: total %d, stretch %.2f\n\n", d.TotalCost, d.Stretch)
	}

	stage("stage 1: ISP X deploys IPv8", []evolve.RouterID{rX[0], rX[1]})
	stage("stage 2: ISP Y deploys IPv8", []evolve.RouterID{rY[0], rY[1]})
	stage("stage 3: ISP Z deploys IPv8 (C relabels to a native address)", []evolve.RouterID{rZ[0], rZ[1]})
}
