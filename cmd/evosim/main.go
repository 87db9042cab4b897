// Command evosim simulates a gradual IPvN rollout over a synthetic
// internet and reports, after each adoption step, the metrics the paper's
// argument rests on: delivery success (universal access), redirection and
// end-to-end stretch, per-ISP ingress traffic share (the revenue signal of
// assumption A4), and vN-Bone shape.
//
// Usage:
//
//	evosim [-topology transit-stub|ring|waxman|ba] [-seed N]
//	       [-transits N] [-stubs N] [-domains N]
//	       [-option 1|2] [-egress exit-early|path-informed|proxy-informed]
//	       [-steps N] [-pairs N]
//
// Each measurement sends between host pairs one after another, in host
// order, so a fixed -seed prints the same report every run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"github.com/evolvable-net/evolve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evosim: ")

	topo := flag.String("topology", "transit-stub", "topology generator: transit-stub, ring, waxman, ba")
	seed := flag.Int64("seed", 42, "generator seed")
	transits := flag.Int("transits", 3, "transit domains (transit-stub)")
	stubs := flag.Int("stubs", 4, "stubs per transit (transit-stub)")
	domains := flag.Int("domains", 12, "domain count (ring/waxman/ba)")
	option := flag.Int("option", 2, "anycast deployment option (1, 2, or 3 for GIA)")
	egress := flag.String("egress", "path-informed", "egress policy: exit-early, path-informed, proxy-informed")
	steps := flag.Int("steps", 4, "adoption steps to simulate")
	pairs := flag.Int("pairs", 500, "max host pairs per measurement (0 = all)")
	failLinks := flag.Bool("fail", false, "after full adoption, fail an inter-domain link and re-measure")
	catchment := flag.Bool("catchment", false, "print each participant's anycast catchment after every step")
	flag.Parse()

	cfg := evolve.GenConfig{Seed: *seed, RoutersPerDomain: 3, HostsPerDomain: 2}
	var (
		net *evolve.Network
		err error
	)
	switch *topo {
	case "transit-stub":
		net, err = evolve.TransitStub(*transits, *stubs, 0.4, cfg)
	case "ring":
		net, err = evolve.RingOfDomains(*domains, cfg)
	case "waxman":
		net, err = evolve.Waxman(*domains, 0.6, 0.4, cfg)
	case "ba":
		net, err = evolve.BarabasiAlbert(*domains, 2, cfg)
	default:
		log.Fatalf("unknown topology %q", *topo)
	}
	if err != nil {
		log.Fatal(err)
	}

	var pol evolve.EgressPolicy
	switch *egress {
	case "exit-early":
		pol = evolve.ExitEarly
	case "path-informed":
		pol = evolve.PathInformed
	case "proxy-informed":
		pol = evolve.ProxyInformed
	default:
		log.Fatalf("unknown egress policy %q", *egress)
	}
	opt := evolve.Option2
	switch *option {
	case 1:
		opt = evolve.Option1
	case 2:
	case 3:
		opt = evolve.OptionGIA
	default:
		log.Fatalf("unknown anycast option %d", *option)
	}

	evo, err := evolve.New(net, evolve.Config{
		Option:    opt,
		DefaultAS: net.ASNs()[0],
		Egress:    pol,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("internet: %d ISPs, %d routers, %d hosts (%s, seed %d)\n",
		len(net.ASNs()), len(net.Routers), len(net.Hosts), *topo, *seed)
	fmt.Printf("deployment: option %d anycast %s, egress %s\n\n", *option, evo.AnycastAddr(), *egress)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "step\tdeployed ISPs\tsuccess\tmean stretch\tp95 stretch\tbone links\ttop ingress share")
	asns := net.ASNs()
	perStep := (len(asns) + *steps - 1) / *steps
	deployed := 0
	for s := 1; s <= *steps; s++ {
		for i := 0; i < perStep && deployed < len(asns); i++ {
			evo.DeployDomain(asns[deployed], 0)
			deployed++
		}
		sample, failures, err := evo.StretchSample(*pairs)
		if err != nil {
			log.Fatal(err)
		}
		success := float64(len(sample)) / float64(len(sample)+failures) * 100
		stats := evolve.Summarize(sample)
		bone, err := evo.Bone()
		if err != nil {
			log.Fatal(err)
		}
		share, err := evo.IngressShare()
		if err != nil {
			log.Fatal(err)
		}
		// Break share ties by name so the report is deterministic (map
		// iteration order would otherwise pick an arbitrary winner).
		topName, topShare := "-", 0.0
		for asn, f := range share {
			name := net.Domain(asn).Name
			if f > topShare || (f == topShare && topName != "-" && name < topName) {
				topShare = f
				topName = name
			}
		}
		fmt.Fprintf(w, "%d\t%d/%d\t%.1f%%\t%.3f\t%.3f\t%d\t%s %.0f%%\n",
			s, deployed, len(asns), success, stats.Mean, stats.P95,
			len(bone.Links()), topName, topShare*100)
		if *catchment {
			w.Flush()
			// Each domain's anycast traffic, probed from its first
			// router, lands in one participant's catchment.
			c := map[evolve.ASN][]evolve.ASN{}
			for _, asn := range net.ASNs() {
				res, err := evo.ResolveAnycast(net.Domain(asn).Routers[0], evo.AnycastAddr())
				if err == nil {
					p := net.DomainOf(res.Member)
					c[p] = append(c[p], asn)
				}
			}
			for _, p := range net.ASNs() {
				if !evo.Participates(p) {
					continue
				}
				srcs := c[p]
				names := ""
				for i, a := range srcs {
					if i > 0 {
						names += ","
					}
					names += net.Domain(a).Name
				}
				fmt.Printf("    %s captures %d domains: %s\n", net.Domain(p).Name, len(srcs), names)
			}
		}
	}
	w.Flush()

	if *failLinks {
		l := net.Inter[0]
		a, b := net.Router(l.From), net.Router(l.To)
		fmt.Printf("\nfailing inter-domain link %s(%s) — %s(%s)\n",
			a.Name, net.Domain(a.Domain).Name, b.Name, net.Domain(b.Domain).Name)
		if _, ok := evo.FailInterLink(l.From, l.To); !ok {
			log.Fatal("link not found")
		}
		sample, failures, err := evo.StretchSample(*pairs)
		if err != nil {
			log.Fatalf("after failure: %v (the bone may be policy-partitioned)", err)
		}
		success := float64(len(sample)) / float64(len(sample)+failures) * 100
		stats := evolve.Summarize(sample)
		fmt.Printf("after failure: success %.1f%%, mean stretch %.3f, p95 %.3f — no endhost did anything\n",
			success, stats.Mean, stats.P95)
	}
}
