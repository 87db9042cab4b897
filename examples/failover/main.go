// Failover demonstrates the operational virtue of network-level
// redirection: links fail, IPvN routers withdraw, and clients keep
// working without touching a single endhost — the anycast address they
// were configured with on day one keeps resolving.
//
// Act I replays the story on the simulator; act II provisions act I's
// healed deployment onto the live UDP overlay, where the failure is a
// real kill of the client's anycast ingress under a seeded 15%
// packet-drop schedule, and the client's acked sends ride retransmission,
// anycast failover and early exit past the dead router. The example
// exits 1 when any acked send is lost.
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

	if err := liveAct(evo, client, server); err != nil {
		log.Fatal(err)
	}
}

// liveAct replays the failover story on the live overlay: act I's healed
// deployment is provisioned onto real sockets, and the client's acked
// sends to the server survive a seeded drop schedule and the death of its
// anycast ingress, with counter deltas printed per phase. It fails when
// any send goes unacked.
func liveAct(evo *evolve.Evolution, client, server *evolve.Host) error {
	fmt.Println("\n=== live overlay act ===")
	o, err := evolve.ProvisionLiveOverlay(evo)
	if err != nil {
		return err
	}
	defer o.Close()
	anycastAddr := evo.AnycastAddr()
	src, dst := o.Hosts[client.ID], o.Hosts[server.ID]
	res, err := evo.ResolveAnycast(client.Attach, anycastAddr)
	if err != nil {
		return err
	}
	ingress := o.Members[res.Member]

	// Each host sends, or acks, through its own anycast route.
	rel := evolve.ReliableConfig{JitterSeed: 11}
	src.EnableReliable(rel)
	dst.EnableReliable(rel)
	// Every wire write faces a 15% seeded drop lottery from here on.
	o.Reg.SetFaultTransport(evolve.NewFaultTransport(evolve.FaultConfig{
		Seed: 11, DropRate: 0.15,
	}))

	lost := 0
	send := func(phase string, n int) {
		before := o.Reg.Counters().Snapshot()
		acked := 0
		for i := 0; i < n; i++ {
			payload := []byte(fmt.Sprintf("%s:%d", phase, i))
			if err := src.SendVNReliable(anycastAddr, dst.VNAddr(), payload); err != nil {
				fmt.Printf("%-28s message %d lost for good: %v\n", phase, i, err)
				continue
			}
			acked++
		}
		lost += n - acked
		delivered := 0
		for delivered < acked {
			if _, err := dst.WaitInbox(time.Second); err != nil {
				break
			}
			delivered++
		}
		after := o.Reg.Counters().Snapshot()
		fmt.Printf("%-28s %d/%d acked, %d delivered  Δdropped=%d Δretransmits=%d Δdedup=%d Δroute failovers=%d\n",
			phase+":", acked, n, delivered,
			after.FaultDropped-before.FaultDropped,
			after.Retransmits-before.Retransmits,
			after.DedupDrops-before.DedupDrops,
			after.FailoversRoute-before.FailoversRoute)
	}

	send("lossy wire", 10)

	fmt.Printf("\n*** killing the client's ingress %s ***\n", ingress.Underlay)
	ingress.Close()
	send("after ingress kill", 10)

	if lost > 0 {
		return fmt.Errorf("%d messages went unacked", lost)
	}
	fmt.Println("\nsame anycast address, live sockets this time: drops were " +
		"retransmitted, the dead ingress was routed around, nothing was " +
		"delivered twice.")
	return nil
}
