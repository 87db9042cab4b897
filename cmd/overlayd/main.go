// Command overlayd runs a live vN-Bone demo on localhost. It provisions
// E11's line of domains through the live bridge — stub A, then -routers
// transits that each deploy IPvN, then stub B, under anycast option 1 —
// so real UDP nodes carry IPvN packets between the two stubs' endhosts
// through anycast ingress, bone relays and an underlay exit. It prints
// each router's socket address and per-node forwarding counters.
//
// Usage:
//
//	overlayd [-routers N] [-messages N]
//	overlayd -debug-addr localhost:6060 -hold 1m
//	overlayd -reliable -drop-rate 0.1 -kill-after 200ms -seed 7
//
// With -debug-addr, overlayd serves live introspection over HTTP while
// the demo runs (see OBSERVABILITY.md):
//
//	/debug/counters  per-node forwarding counters plus the registry's
//	                 live-plane and fault counters, expvar-style text
//	/debug/peers     every node's liveness peer-health table
//	/debug/vars      standard expvar JSON (includes the "overlay" map)
//	/debug/pprof/    net/http/pprof profiles of the running daemon
//
// The fault flags exercise the live plane's fault tolerance:
//
//	-drop-rate f     seeded probabilistic drop on every wire write
//	-partition a-b   hard partition between two node underlays
//	-kill-after d    close host A's anycast ingress after d
//	-reliable        send the workload in acked/retransmitting mode
//	-seed n          root for every fault and jitter PRNG
//
// Every router serves the anycast address. When any fault flag is
// active, every node probes the next hops its own routes name (a router
// its bone next hops, a host its anycast route's members) and steers
// around the ones it suspects; after the kill, host A's sends fail over
// to the next router, and a relay whose next hop died lets a
// self-addressed packet exit by the underlay address it carries.
//
// -hold keeps the nodes (and the debug server) alive after the workload
// finishes so the endpoints can be inspected at leisure.
//
// overlayd exits 1 when the run is lost: with -reliable when any message
// goes unacked, in ping mode when no ping is answered.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"strings"
	"time"

	"github.com/evolvable-net/evolve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("overlayd: ")
	routers := flag.Int("routers", 4, "transit domains between the two stubs, each one vN router of the bone")
	messages := flag.Int("messages", 10, "IPvN packets to send end to end")
	debugAddr := flag.String("debug-addr", "", "serve live introspection on this HTTP address (/debug/counters, /debug/peers, /debug/vars, /debug/pprof/)")
	hold := flag.Duration("hold", 0, "keep nodes and the debug server alive this long after the workload finishes")
	dropRate := flag.Float64("drop-rate", 0, "seeded probabilistic drop rate on every wire write")
	partition := flag.String("partition", "", "partition two nodes, e.g. 0.1.0.2-0.2.0.1 (host A and router 1)")
	killAfter := flag.Duration("kill-after", 0, "close host A's anycast ingress this long into the workload")
	reliable := flag.Bool("reliable", false, "send the workload in acked/retransmitting mode")
	seed := flag.Int64("seed", 1, "root seed for fault and jitter PRNGs")
	flag.Parse()
	if *routers < 1 {
		log.Fatal("need at least one router")
	}
	faulty := *dropRate > 0 || *partition != "" || *killAfter > 0
	if faulty && *routers < 2 {
		log.Fatal("fault flags need at least two routers (a backup ingress)")
	}

	net, err := evolve.LineOfDomains(*routers)
	if err != nil {
		log.Fatal(err)
	}
	evo, err := evolve.New(net, evolve.Config{Option: evolve.Option1})
	if err != nil {
		log.Fatal(err)
	}
	var chain []evolve.RouterID
	for i := 1; i <= *routers; i++ {
		chain = append(chain, net.DomainByName(fmt.Sprintf("T%d", i)).Routers...)
	}
	evo.DeployRouters(chain)
	o, err := evolve.ProvisionLiveOverlay(evo)
	if err != nil {
		log.Fatal(err)
	}
	defer o.Close()
	reg, anycastAddr := o.Reg, evo.AnycastAddr()
	hA, hB := net.Hosts[0], net.Hosts[1]
	hostA, hostB := o.Hosts[hA.ID], o.Hosts[hB.ID]
	bone := make([]*evolve.OverlayNode, len(chain))
	for i, r := range chain {
		bone[i] = o.Members[r]
	}

	if faulty {
		ft := evolve.NewFaultTransport(evolve.FaultConfig{
			Seed:     *seed,
			DropRate: *dropRate,
			// Probes stay clean so suspicion reflects real deaths, not
			// the drop lottery.
			DataOnly: true,
		})
		if *partition != "" {
			parts := strings.SplitN(*partition, "-", 2)
			if len(parts) != 2 {
				log.Fatalf("bad -partition %q (want A-B)", *partition)
			}
			a, err := evolve.ParseV4(parts[0])
			if err != nil {
				log.Fatal(err)
			}
			b, err := evolve.ParseV4(parts[1])
			if err != nil {
				log.Fatal(err)
			}
			ft.Partition(a, b)
		}
		reg.SetFaultTransport(ft)
		for _, n := range append([]*evolve.OverlayNode{hostA, hostB}, bone...) {
			n.EnableLiveness()
		}
	}
	if *reliable {
		rel := evolve.ReliableConfig{JitterSeed: *seed}
		hostA.EnableReliable(rel)
		hostB.EnableReliable(rel)
	}

	fmt.Printf("anycast ingress %s (%d member(s)), %d bone routers, hosts %s ↔ %s\n",
		anycastAddr, len(o.Members), len(bone), hostA.Underlay, hostB.Underlay)
	for i, n := range bone {
		ep, _ := reg.Endpoint(n.Underlay)
		fmt.Printf("  router %d: underlay %s udp %s\n", i+1, n.Underlay, ep)
	}

	all := map[string]*evolve.OverlayNode{
		"hostA": hostA,
		"hostB": hostB,
	}
	names := []string{"hostA", "hostB"}
	for i, n := range bone {
		name := fmt.Sprintf("router%d", i+1)
		all[name] = n
		names = append(names, name)
	}
	if *debugAddr != "" {
		// Standard expvar JSON at /debug/vars (plus cmdline/memstats),
		// pprof at /debug/pprof/ — both register on the default mux.
		expvar.Publish("overlay", expvar.Func(func() any {
			out := map[string]evolve.OverlayStats{}
			for name, n := range all {
				out[name] = n.Stats()
			}
			return out
		}))
		// A plain-text counter dump mirroring Snapshot.String's
		// "key value" line format, for curl without jq.
		http.HandleFunc("/debug/counters", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, name := range names {
				s := all[name].Stats()
				fmt.Fprintf(w, "%s.delivered %d\n", name, s.Delivered)
				fmt.Fprintf(w, "%s.forwarded %d\n", name, s.Forwarded)
				fmt.Fprintf(w, "%s.exited %d\n", name, s.Exited)
				fmt.Fprintf(w, "%s.dropped %d\n", name, s.Dropped)
			}
			// Registry-wide live-plane counters (probes, failovers,
			// retransmits, faults, reconciles).
			fmt.Fprint(w, reg.Counters().Snapshot().String())
		})
		// Per-node peer-health tables from liveness probing.
		http.HandleFunc("/debug/peers", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, name := range names {
				for _, ps := range all[name].PeerHealth() {
					fmt.Fprintf(w, "%s peer=%s suspected=%v misses=%d\n",
						name, ps.Peer, ps.Suspected, ps.Misses)
				}
			}
		})
		go func() {
			log.Printf("debug server on http://%s (/debug/counters, /debug/peers, /debug/vars, /debug/pprof/)", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	if *killAfter > 0 {
		res, err := evo.ResolveAnycast(hA.Attach, anycastAddr)
		if err != nil {
			log.Fatal(err)
		}
		ingress := o.Members[res.Member]
		time.AfterFunc(*killAfter, func() {
			log.Printf("killing host A's ingress %s", ingress.Underlay)
			ingress.Close()
		})
	}

	start := time.Now()
	got := 0
	var rttSum time.Duration
	if *reliable {
		// One-way acked sends: every returned send is a guaranteed
		// exactly-once delivery at B, surviving drops and the ingress
		// kill via retransmission and anycast failover.
		for i := 0; i < *messages; i++ {
			sent := time.Now()
			if err := hostA.SendVNReliable(anycastAddr, hostB.VNAddr(), []byte(fmt.Sprintf("msg:%d", i))); err != nil {
				log.Printf("message %d not acked: %v", i, err)
				continue
			}
			rttSum += time.Since(sent)
			got++
		}
		elapsed := time.Since(start)
		fmt.Printf("%d/%d messages acked in %v (mean ack RTT %s)\n",
			got, *messages, elapsed.Round(time.Millisecond), meanRTT(rttSum, got))
	} else {
		// Host B answers pings; RTTs traverse the bone twice.
		hostB.EnableEcho()
		for i := 0; i < *messages; i++ {
			payload := []byte(fmt.Sprintf("ping:%d", i))
			sent := time.Now()
			if err := hostA.SendVN(anycastAddr, hostB.VNAddr(), payload); err != nil {
				log.Fatal(err)
			}
			rcv, err := hostA.WaitInbox(2 * time.Second)
			if err != nil {
				log.Printf("packet %d lost: %v", i, err)
				continue
			}
			rtt := time.Since(sent)
			rttSum += rtt
			got++
			if i == 0 {
				fmt.Printf("first pong: %q from %s in %v\n",
					rcv.Payload, rcv.From, rtt.Round(time.Microsecond))
			}
		}
		elapsed := time.Since(start)
		fmt.Printf("%d/%d pings answered in %v (mean RTT %s through 2×%d relays)\n",
			got, *messages, elapsed.Round(time.Millisecond), meanRTT(rttSum, got), len(bone))
	}
	for i, n := range bone {
		s := n.Stats()
		fmt.Printf("  router %d: forwarded=%d exited=%d dropped=%d\n",
			i+1, s.Forwarded, s.Exited, s.Dropped)
	}
	if faulty {
		snap := reg.Counters().Snapshot()
		fmt.Printf("live plane: retransmits=%d failover_anycast=%d failover_route=%d suspected=%d recovered=%d dropped_by_faults=%d\n",
			snap.Retransmits, snap.FailoversAnycast, snap.FailoversRoute,
			snap.PeersSuspected, snap.PeersRecovered, snap.FaultDropped)
	}
	if *hold > 0 {
		fmt.Printf("holding for %v (debug endpoints stay live; ^C to quit)\n", *hold)
		time.Sleep(*hold)
	}
	switch {
	case *reliable && got < *messages:
		log.Fatalf("%d of %d messages went unacked", *messages-got, *messages)
	case !*reliable && got == 0 && *messages > 0:
		log.Fatal("no ping was answered: the run is lost")
	}
}

// meanRTT renders sum/n in microseconds, or "n/a" when nothing was
// answered and there is no mean to take.
func meanRTT(sum time.Duration, n int) string {
	if n == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f µs", float64(sum.Microseconds())/float64(n))
}
