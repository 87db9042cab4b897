// Failover demonstrates the operational virtue of network-level
// redirection: links fail, IPvN routers withdraw, and clients keep
// working without touching a single endhost — the anycast address they
// were configured with on day one keeps resolving.
//
// Act I replays the story on the simulator; act II replays it on the
// live UDP overlay, where the failure is a real process-level kill of
// the preferred ingress under a seeded 15% packet-drop schedule, and
// the client's acked sends ride retransmission and anycast failover.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/evolvable-net/evolve"
)

func main() {
	log.SetFlags(0)

	net, err := evolve.TransitStub(3, 3, 0.5, evolve.GenConfig{
		Seed: 11, RoutersPerDomain: 3, HostsPerDomain: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	evo, err := evolve.New(net, evolve.Config{
		Option:    evolve.Option2,
		DefaultAS: net.DomainByName("T0").ASN,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Two transits deploy IPv8.
	evo.DeployDomain(net.DomainByName("T0").ASN, 0)
	evo.DeployDomain(net.DomainByName("T1").ASN, 0)

	// Pick a multihomed client stub (two uplinks), so one failed uplink
	// degrades rather than isolates.
	var clientASN evolve.ASN = -1
	for _, asn := range net.ASNs() {
		if net.Domain(asn).Name[0] != 'S' {
			continue
		}
		if len(net.Neighbors(asn)) >= 2 && len(net.HostsIn(asn)) > 0 {
			clientASN = asn
			break
		}
	}
	if clientASN < 0 {
		log.Fatal("no multihomed stub in this topology/seed")
	}
	client := net.HostsIn(clientASN)[0]
	server := net.HostsIn(net.DomainByName("S1.1").ASN)[0]
	fmt.Printf("client lives in multihomed stub %s\n\n", net.Domain(clientASN).Name)

	report := func(phase string) {
		res, err := evo.ResolveAnycast(client.Attach, evo.AnycastAddr())
		if err != nil {
			fmt.Printf("%-28s client cannot reach IPv8: %v\n", phase, err)
			return
		}
		res.Cost += client.AccessLatency
		d, err := evo.Send(client, server, []byte("GET /")) // full delivery
		if err != nil {
			fmt.Printf("%-28s ingress %s but delivery failed: %v\n",
				phase, net.Domain(net.DomainOf(res.Member)).Name, err)
			return
		}
		fmt.Printf("%-28s ingress %s (cost %d), end-to-end %d, stretch %.2f\n",
			phase, net.Domain(net.DomainOf(res.Member)).Name, res.Cost, d.TotalCost, d.Stretch)
	}

	report("healthy:")

	// One of the client stub's two uplinks dies.
	up := net.Inter[0]
	for _, l := range net.Inter {
		if net.DomainOf(l.To) == client.Domain || net.DomainOf(l.From) == client.Domain {
			up = l
			break
		}
	}
	a, b := net.Router(up.From), net.Router(up.To)
	fmt.Printf("\n*** failing link %s — %s ***\n", a.Name, b.Name)
	link, ok := evo.FailInterLink(up.From, up.To)
	if !ok {
		log.Fatal("link not found")
	}
	report("after uplink failure:")

	// One whole deploying ISP turns IPv8 off.
	fmt.Println("\n*** T1 un-deploys IPv8 entirely ***")
	for _, r := range net.DomainByName("T1").Routers {
		evo.UndeployRouter(r)
	}
	report("after T1 withdrawal:")

	// Everything heals.
	fmt.Println("\n*** link repaired, T1 redeploys ***")
	evo.RestoreInterLink(link)
	evo.DeployDomain(net.DomainByName("T1").ASN, 0)
	report("healed:")

	fmt.Println("\nthe client never reconfigured anything: same anycast address throughout.")

	liveAct()
}

// liveAct replays the failover story on the live overlay: a client's
// acked sends survive a seeded drop schedule and the death of the
// preferred anycast ingress, with counter deltas printed per phase.
func liveAct() {
	fmt.Println("\n=== live overlay act ===")
	reg := evolve.NewOverlayRegistry()
	mk := func(s string) *evolve.OverlayNode {
		a, err := evolve.ParseV4(s)
		if err != nil {
			log.Fatal(err)
		}
		n, err := evolve.NewOverlayNode(reg, a)
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	client, server := mk("10.9.0.1"), mk("10.9.0.2")
	ing1, ing2 := mk("10.9.0.11"), mk("10.9.0.12")
	defer func() {
		for _, n := range []*evolve.OverlayNode{client, server, ing2} {
			n.Close()
		}
	}()

	anycastAddr, err := evolve.ParseV4("240.0.0.1")
	if err != nil {
		log.Fatal(err)
	}
	ing1.ServeAnycast(anycastAddr)
	ing2.ServeAnycast(anycastAddr)
	// The client sends and the server acks through the anycast address.
	client.SetAnycastRoute(anycastAddr, ing1.Underlay, ing2.Underlay)
	server.SetAnycastRoute(anycastAddr, ing1.Underlay, ing2.Underlay)
	client.SetVNAddr(evolve.SelfAddress(client.Underlay))
	server.SetVNAddr(evolve.SelfAddress(server.Underlay))

	rel := evolve.ReliableConfig{AckVia: anycastAddr, JitterSeed: 11}
	client.EnableReliable(rel)
	server.EnableReliable(rel)
	// Every wire write faces a 15% seeded drop lottery from here on.
	reg.SetFaultTransport(evolve.NewFaultTransport(evolve.FaultConfig{
		Seed: 11, DropRate: 0.15,
	}))

	send := func(phase string, n int) {
		before := reg.Counters().Snapshot()
		acked := 0
		for i := 0; i < n; i++ {
			payload := []byte(fmt.Sprintf("%s:%d", phase, i))
			if err := client.SendVNReliable(anycastAddr, server.VNAddr(), payload); err != nil {
				fmt.Printf("%-28s message %d lost for good: %v\n", phase, i, err)
				continue
			}
			acked++
		}
		delivered := 0
		for delivered < acked {
			if _, err := server.WaitInbox(time.Second); err != nil {
				break
			}
			delivered++
		}
		after := reg.Counters().Snapshot()
		fmt.Printf("%-28s %d/%d acked, %d delivered  Δdropped=%d Δretransmits=%d Δdedup=%d\n",
			phase+":", acked, n, delivered,
			after.FaultDropped-before.FaultDropped,
			after.Retransmits-before.Retransmits,
			after.DedupDrops-before.DedupDrops)
	}

	send("lossy wire", 10)

	fmt.Printf("\n*** killing preferred ingress %s ***\n", ing1.Underlay)
	ing1.Close()
	send("after ingress kill", 10)

	fmt.Println("\nsame anycast address, live sockets this time: drops were " +
		"retransmitted, the dead ingress was routed around, nothing was " +
		"delivered twice.")
}
