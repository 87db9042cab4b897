package evolve

// The benchmark harness: one testing.B benchmark per paper figure /
// experiment (DESIGN.md §4 maps each to its scenario). Each benchmark
// regenerates its experiment's table and additionally reports
// experiment-specific metrics through b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the complete evaluation.

import (
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
)

// benchExperiment runs one harness experiment per iteration and fails the
// benchmark if the reproduction verdict regresses.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := RunExperiment(id, 42)
		if err != nil {
			b.Fatal(err)
		}
		if !tbl.OK {
			b.Fatalf("%s verdict regressed: %s", id, tbl.Verdict)
		}
	}
}

// BenchmarkFig1SeamlessSpread regenerates Figure 1 (E1).
func BenchmarkFig1SeamlessSpread(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkFig2DefaultRoutes regenerates Figure 2 (E2).
func BenchmarkFig2DefaultRoutes(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkFig3EgressSelection regenerates Figure 3 (E3).
func BenchmarkFig3EgressSelection(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkFig4AdvByProxy regenerates Figure 4 (E4).
func BenchmarkFig4AdvByProxy(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkUAStretchVsDeployment regenerates E5.
func BenchmarkUAStretchVsDeployment(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkRedirectorComparison regenerates E6.
func BenchmarkRedirectorComparison(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkAnycastStateGrowth regenerates E7.
func BenchmarkAnycastStateGrowth(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkVNBoneConstruction regenerates E8.
func BenchmarkVNBoneConstruction(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkAdoptionDynamics regenerates E9.
func BenchmarkAdoptionDynamics(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkSelfAddressing regenerates E10.
func BenchmarkSelfAddressing(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkOverlayForwarding regenerates E11 (live UDP sockets).
func BenchmarkOverlayForwarding(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkIntraDomainAnycast regenerates E12.
func BenchmarkIntraDomainAnycast(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkFailureResilience regenerates E13.
func BenchmarkFailureResilience(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkEndhostRegistration regenerates E14.
func BenchmarkEndhostRegistration(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkProviderChoice regenerates E15.
func BenchmarkProviderChoice(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkGIAComparison regenerates E16.
func BenchmarkGIAComparison(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkConvergenceDynamics regenerates E17.
func BenchmarkConvergenceDynamics(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkAnycastFailoverDynamics regenerates E18.
func BenchmarkAnycastFailoverDynamics(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkMulticastPayoff regenerates E19.
func BenchmarkMulticastPayoff(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkDefaultDomainDependence regenerates E20.
func BenchmarkDefaultDomainDependence(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkFallbackAvailability regenerates E21.
func BenchmarkFallbackAvailability(b *testing.B) { benchExperiment(b, "E21") }

// BenchmarkSendEndToEnd measures the full data path (ingress anycast,
// bone relay with real encap/decap, egress, tail) per delivery, at three
// deployment levels.
func BenchmarkSendEndToEnd(b *testing.B) {
	net, err := TransitStub(3, 4, 0.4, GenConfig{Seed: 42, RoutersPerDomain: 3, HostsPerDomain: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, deployed := range []int{1, len(net.ASNs()) / 2, len(net.ASNs())} {
		b.Run("deployedISPs="+strconv.Itoa(deployed), func(b *testing.B) {
			evo, err := core.New(net, core.Config{Option: anycast.Option2, DefaultAS: net.ASNs()[0]})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < deployed; i++ {
				evo.DeployDomain(net.ASNs()[i], 0)
			}
			src := net.Hosts[0]
			dst := net.Hosts[len(net.Hosts)-1]
			payload := make([]byte, 256)
			// Warm caches and record the stretch this configuration gives.
			d, err := evo.Send(src, dst, payload)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(d.Stretch, "stretch")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evo.Send(src, dst, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEgressPolicies is the E3/E4 ablation at workload scale: mean
// stretch per egress policy over all host pairs.
func BenchmarkEgressPolicies(b *testing.B) {
	net, err := TransitStub(3, 4, 0.4, GenConfig{Seed: 42, RoutersPerDomain: 3, HostsPerDomain: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []EgressPolicy{ExitEarly, PathInformed, ProxyInformed} {
		b.Run(pol.String(), func(b *testing.B) {
			evo, err := core.New(net, core.Config{
				Option: anycast.Option2, DefaultAS: net.ASNs()[0], Egress: pol,
			})
			if err != nil {
				b.Fatal(err)
			}
			evo.DeployDomain(net.DomainByName("T0").ASN, 0)
			evo.DeployDomain(net.DomainByName("T1").ASN, 0)
			b.ReportAllocs()
			var mean float64
			for i := 0; i < b.N; i++ {
				sample, failures, err := evo.StretchSample(200)
				if err != nil || failures > 0 {
					b.Fatalf("%v (%d failures)", err, failures)
				}
				s := Summarize(sample)
				mean = s.Mean
			}
			b.ReportMetric(mean, "mean-stretch")
		})
	}
}

// BenchmarkSendParallel measures the concurrent-send hot path: all
// goroutines hammer one Evolution through the RWMutex read path. Compare
// against BenchmarkSendEndToEnd for the scaling factor.
func BenchmarkSendParallel(b *testing.B) {
	net, err := TransitStub(3, 4, 0.4, GenConfig{Seed: 42, RoutersPerDomain: 3, HostsPerDomain: 2})
	if err != nil {
		b.Fatal(err)
	}
	evo, err := core.New(net, core.Config{Option: anycast.Option2, DefaultAS: net.ASNs()[0]})
	if err != nil {
		b.Fatal(err)
	}
	for _, asn := range net.ASNs() {
		evo.DeployDomain(asn, 0)
	}
	src := net.Hosts[0]
	dst := net.Hosts[len(net.Hosts)-1]
	payload := make([]byte, 256)
	if _, err := evo.Send(src, dst, payload); err != nil { // warm caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := evo.Send(src, dst, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBGPConvergence measures routing-fixpoint cost as the internet
// grows — the substrate's scalability.
func BenchmarkBGPConvergence(b *testing.B) {
	for _, size := range []int{10, 25, 50} {
		b.Run("ASes="+strconv.Itoa(size), func(b *testing.B) {
			net, err := topology.BarabasiAlbert(size, 2, topology.GenConfig{Seed: 42, RoutersPerDomain: 2})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evo, err := core.New(net, core.Config{Option: anycast.Option1})
				if err != nil {
					b.Fatal(err)
				}
				evo.DeployDomain(net.ASNs()[0], 0)
				if _, err := evo.Bone(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoneRebuild isolates vN-Bone construction cost as membership
// grows.
func BenchmarkBoneRebuild(b *testing.B) {
	net, err := TransitStub(3, 4, 0.4, GenConfig{Seed: 42, RoutersPerDomain: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, domains := range []int{3, 7, 15} {
		b.Run("participants="+strconv.Itoa(domains), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evo, err := core.New(net, core.Config{Option: anycast.Option1, Egress: bgpvn.PathInformed})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < domains && j < len(net.ASNs()); j++ {
					evo.DeployDomain(net.ASNs()[j], 0)
				}
				if _, err := evo.Bone(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fleetSize is the endhost count BenchmarkFleetSend registers. The
// default keeps `go test -bench` tractable; the headline configuration
// is FLEET_HOSTS=1000000.
func fleetSize() int {
	if s := os.Getenv("FLEET_HOSTS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 50000
}

// fleetWorld generates a transit–stub internet carrying about `hosts`
// endhosts (50 per stub domain), deploys an anycast group over the
// transit core, and bulk-registers every stub endhost so the delivery
// plane carries one /128 per fleet member.
func fleetWorld(b *testing.B, hosts int) (*topology.Network, *core.Evolution) {
	b.Helper()
	const hostsPer = 50
	domains := hosts / hostsPer
	if domains < 4 {
		domains = 4
	}
	nTransit := domains / 100
	if nTransit < 2 {
		nTransit = 2
	}
	net, err := topology.TransitStub(nTransit, domains/nTransit-1, 0.3, topology.GenConfig{
		Seed: 42, RoutersPerDomain: 2, HostsPerDomain: hostsPer,
	})
	if err != nil {
		b.Fatal(err)
	}
	evo, err := core.New(net, core.Config{Option: anycast.Option2, DefaultAS: net.DomainByName("T0").ASN})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nTransit; i++ {
		evo.DeployDomain(net.DomainByName("T"+strconv.Itoa(i)).ASN, 0)
	}
	if err := evo.RegisterEndhosts(net.Hosts); err != nil {
		b.Fatal(err)
	}
	return net, evo
}

// BenchmarkFleetSend hammers a fleet-scale internet (FLEET_HOSTS
// endhosts, every one registered) with 64 concurrent senders over a fixed
// working set of flows, on the default configuration. Steady state must
// report 0 allocs/op. (cmd/bench's fleet_warm workload is the ledger
// form of this; the benchmark stays for `go test -bench` profiling.)
func BenchmarkFleetSend(b *testing.B) {
	net, evo := fleetWorld(b, fleetSize())
	// The senders cycle a fixed flow working set spanning the whole
	// fleet, the way a steady traffic matrix would.
	const flows = 1024
	type pair struct{ src, dst *topology.Host }
	pairs := make([]pair, flows)
	stride := len(net.Hosts)/flows + 1
	for i := range pairs {
		pairs[i] = pair{
			src: net.Hosts[(i*stride)%len(net.Hosts)],
			dst: net.Hosts[(i*stride+len(net.Hosts)/2)%len(net.Hosts)],
		}
	}
	payload := make([]byte, 256)
	for i := 0; i < flows; i++ { // warm every flow once
		if _, err := evo.Send(pairs[i].src, pairs[i].dst, payload); err != nil {
			b.Fatal(err)
		}
	}
	// 64 concurrent senders regardless of GOMAXPROCS.
	para := 64 / runtime.GOMAXPROCS(0)
	if para < 1 {
		para = 1
	}
	b.SetParallelism(para)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := pairs[next.Add(1)%flows]
			if _, err := evo.Send(p.src, p.dst, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sends/sec")
}

// reportPerPacket reports a burst benchmark's rate and its reciprocal,
// the per-packet cost DESIGN.md §8.2 quotes.
func reportPerPacket(b *testing.B, burst int) {
	pkts := float64(b.N) * float64(burst)
	b.ReportMetric(pkts/b.Elapsed().Seconds(), "packets/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pkts, "ns/pkt")
}

// BenchmarkSendBatch compares batched sends against the equivalent Send
// loop on 64-packet bursts over the fleet world, default configuration:
// one engine driven 64 times by 64 calls or by one. Every iteration is
// one burst, reported as packets/sec and ns/pkt.
// The burst cycles 8 distinct destinations (8 flow skeletons per batch,
// 8 packets riding each), and the single-destination SendBurst arm is
// the best case (one flow, 64 packets).
func BenchmarkSendBatch(b *testing.B) {
	const burst = 64
	net, evo := fleetWorld(b, fleetSize())
	src := net.Hosts[0]
	dsts := make([]*topology.Host, burst)
	for i := range dsts {
		dsts[i] = net.Hosts[(1+i%8)*len(net.Hosts)/16]
	}
	payload := make([]byte, 256)
	payloads := make([][]byte, burst)
	for i := range payloads {
		payloads[i] = payload
	}
	for _, d := range dsts { // warm every flow
		if _, err := evo.Send(src, d, payload); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < burst; j++ {
				if _, err := evo.Send(src, dsts[j], payload); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportPerPacket(b, burst)
	})
	b.Run("batch", func(b *testing.B) {
		out := make([]core.Delivery, 0, burst)
		var err error
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out, err = evo.AppendSendBatch(out[:0], src, dsts, payloads); err != nil {
				b.Fatal(err)
			}
		}
		reportPerPacket(b, burst)
	})
	b.Run("burst", func(b *testing.B) {
		out := make([]core.Delivery, 0, burst)
		var err error
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out, err = evo.AppendSendBurst(out[:0], src, dsts[0], payloads); err != nil {
				b.Fatal(err)
			}
		}
		reportPerPacket(b, burst)
	})
}

// churnWorld builds the stock 15-domain transit–stub internet with an
// option-1 deployment over the first 7 domains, plus one intra link of a
// deployed stub domain to flap.
func churnWorld(b *testing.B) (*topology.Network, *core.Evolution, topology.RouterID, topology.RouterID, int64) {
	b.Helper()
	net, err := topology.TransitStub(3, 4, 0.4, topology.GenConfig{
		Seed:             42,
		RoutersPerDomain: 3,
		HostsPerDomain:   2,
	})
	if err != nil {
		b.Fatal(err)
	}
	evo, err := core.New(net, core.Config{Option: anycast.Option1})
	if err != nil {
		b.Fatal(err)
	}
	for _, asn := range net.ASNs()[:7] {
		evo.DeployDomain(asn, 0)
	}
	asn := net.ASNs()[6]
	for _, r := range net.Domain(asn).Routers {
		for _, e := range net.Intra.Neighbors(int(r)) {
			if net.DomainOf(topology.RouterID(e.To)) == asn {
				return net, evo, r, topology.RouterID(e.To), e.Weight
			}
		}
	}
	b.Fatalf("AS%d has no intra link to flap", asn)
	return nil, nil, 0, 0, 0
}

// BenchmarkChurnSend measures delivery under reconvergence churn: every
// iteration flaps one intra-domain link (two epoch rebuilds) and then
// sends a burst of packets. The dijkstras/op metric is the recomputation
// count of the scoped rebuilds.
func BenchmarkChurnSend(b *testing.B) {
	net, evo, ra, rb, lat := churnWorld(b)
	payload := []byte("churn-bench")
	if _, err := evo.Send(net.Hosts[0], net.Hosts[1], payload); err != nil {
		b.Fatal(err)
	}
	start := evo.IGP.DijkstraRuns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evo.FailIntraLink(ra, rb)
		evo.RestoreIntraLink(ra, rb, lat)
		for j := 0; j < 8; j++ {
			src := net.Hosts[(i+j)%len(net.Hosts)]
			dst := net.Hosts[(i+j+1)%len(net.Hosts)]
			if _, err := evo.Send(src, dst, payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(evo.IGP.DijkstraRuns()-start)/float64(b.N), "dijkstras/op")
}
