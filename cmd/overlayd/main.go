// Command overlayd runs a live vN-Bone demo on localhost: real UDP nodes
// forming a chain of IPvN routers, two endhosts exchanging IPvN packets
// through anycast ingress, bone relays and an underlay exit. It prints
// each node's socket address and per-node forwarding counters.
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
//	-kill-after d    close the preferred anycast ingress after d
//	-reliable        send the workload in acked/retransmitting mode
//	-seed n          root for every fault and jitter PRNG
//
// When any fault flag is active the first two routers both serve the
// anycast address, liveness probing runs between all bone neighbours,
// and killing the preferred ingress demonstrates anycast failover.
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
	routers := flag.Int("routers", 4, "vN routers in the bone chain")
	messages := flag.Int("messages", 10, "IPvN packets to send end to end")
	debugAddr := flag.String("debug-addr", "", "serve live introspection on this HTTP address (/debug/counters, /debug/peers, /debug/vars, /debug/pprof/)")
	hold := flag.Duration("hold", 0, "keep nodes and the debug server alive this long after the workload finishes")
	dropRate := flag.Float64("drop-rate", 0, "seeded probabilistic drop rate on every wire write")
	partition := flag.String("partition", "", "partition two nodes, e.g. 10.7.0.1-10.7.0.10")
	killAfter := flag.Duration("kill-after", 0, "close the preferred anycast ingress this long into the workload")
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

	reg := evolve.NewOverlayRegistry()
	u := func(last byte) evolve.V4 {
		a, err := evolve.ParseV4(fmt.Sprintf("10.7.0.%d", last))
		if err != nil {
			log.Fatal(err)
		}
		return a
	}

	hostA, err := evolve.NewOverlayNode(reg, u(1))
	if err != nil {
		log.Fatal(err)
	}
	defer hostA.Close()
	hostB, err := evolve.NewOverlayNode(reg, u(2))
	if err != nil {
		log.Fatal(err)
	}
	defer hostB.Close()

	var bone []*evolve.OverlayNode
	for i := 0; i < *routers; i++ {
		n, err := evolve.NewOverlayNode(reg, u(byte(10+i)))
		if err != nil {
			log.Fatal(err)
		}
		defer n.Close()
		bone = append(bone, n)
	}

	// The deployment's well-known anycast address; the first router is
	// the preferred ingress, and under fault flags the second serves as
	// the failover ingress.
	anycastAddr, err := evolve.ParseV4("240.0.0.1")
	if err != nil {
		log.Fatal(err)
	}
	bone[0].ServeAnycast(anycastAddr)
	members := []evolve.V4{bone[0].Underlay}
	if faulty {
		bone[1].ServeAnycast(anycastAddr)
		members = append(members, bone[1].Underlay)
	}
	// The hosts send, echo and ack through the anycast address.
	for _, h := range []*evolve.OverlayNode{hostA, hostB} {
		h.SetAnycastRoute(anycastAddr, members[0], members[1:]...)
	}

	hostA.SetVNAddr(evolve.SelfAddress(hostA.Underlay))
	hostB.SetVNAddr(evolve.SelfAddress(hostB.Underlay))

	// Bone routes: all self-addressed traffic rides the chain; the last
	// router exits via the carried underlay destination.
	selfAll := evolve.VNPrefix{Addr: evolve.SelfAddress(0), Len: 1}
	for i := 0; i+1 < len(bone); i++ {
		bone[i].SetVNRoutes(map[evolve.VNPrefix][]evolve.V4{selfAll: {bone[i+1].Underlay}})
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
			n.EnableLiveness(evolve.LivenessConfig{Interval: 50 * time.Millisecond})
		}
	}
	if *reliable {
		rel := evolve.ReliableConfig{AckVia: anycastAddr, JitterSeed: *seed}
		hostA.EnableReliable(rel)
		hostB.EnableReliable(rel)
	}

	fmt.Printf("anycast ingress %s (%d member(s)), %d bone routers, hosts %s ↔ %s\n",
		anycastAddr, len(members), len(bone), hostA.Underlay, hostB.Underlay)
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
		time.AfterFunc(*killAfter, func() {
			log.Printf("killing preferred ingress %s", bone[0].Underlay)
			bone[0].Close()
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
		hostB.EnableEcho(anycastAddr)
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
