// Package evolve is a library-scale implementation of Ratnasamy, Shenker
// and McCanne, "Towards an Evolvable Internet Architecture" (SIGCOMM
// 2005): the mechanisms that let a new generation of IP — "IPvN" — be
// deployed gradually by incumbent ISPs while every endhost retains access
// from day one.
//
// The three pillars, each usable separately and assembled by Evolution:
//
//   - IP Anycast as network-level redirection (§3.1–3.2): a well-known
//     anycast address per IPvN deployment; endhosts encapsulate IPvN
//     packets toward it and unicast routing delivers them to the closest
//     IPvN router, under either deployment option (globally propagated
//     host routes, or addresses rooted in a default ISP's aggregate).
//   - vN-Bones (§3.3): participant ISPs' IPvN routers self-organize into
//     a multi-provider virtual network — k-closest intra-domain
//     adjacencies with partition repair, peering-policy tunnels across
//     domains, anycast bootstrap for isolated joiners.
//   - Routing over the bone (§3.3.2): native IPvN prefixes advertised by
//     participants, and three egress-selection policies for destinations
//     in non-participant domains (exit-early, BGPv(N-1)-informed,
//     advertising-by-proxy).
//
// Quick start:
//
//	net, _ := evolve.TransitStub(3, 4, 0.4, evolve.GenConfig{Seed: 1, HostsPerDomain: 2})
//	evo, _ := evolve.New(net, evolve.Config{Option: evolve.Option2, DefaultAS: net.ASNs()[0]})
//	evo.DeployDomain(net.ASNs()[0], 0) // one ISP deploys IPv8
//	d, _ := evo.Send(net.Hosts[0], net.Hosts[5], []byte("hello IPv8"))
//	fmt.Printf("delivered with stretch %.2f via %d vN hops\n", d.Stretch, d.VNHops)
//
// The full experiment harness reproducing the paper's figures lives
// behind RunExperiment / Experiments; see DESIGN.md and EXPERIMENTS.md.
//
// The library is built to hold fleet-scale internets: the routing plane
// scales to 10k+ domains (the benchmark's cold_start workload builds 4000
// with 200k hosts) and the delivery plane to million-endhost fleets —
// Send is lock-free, memoises per-flow routing
// skeletons inside the immutable routing epoch, runs the wire path on
// pooled buffers (zero allocations at steady state) and counts into
// striped counters, so 64 concurrent senders scale without sharing
// cache lines (`go run ./cmd/bench run -workloads fleet_warm,fleet_burst`
// measures it, and Evolution.RegisterEndhosts bulk-registers a fleet as
// one epoch).
package evolve

import (
	"fmt"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/econ"
	"github.com/evolvable-net/evolve/internal/experiments"
	"github.com/evolvable-net/evolve/internal/livebridge"
	"github.com/evolvable-net/evolve/internal/metrics"
	"github.com/evolvable-net/evolve/internal/overlaynet"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
	"github.com/evolvable-net/evolve/internal/vnbone"
	"github.com/evolvable-net/evolve/internal/vncast"
)

// Topology model.
type (
	// Network is an assembled multi-ISP internet.
	Network = topology.Network
	// Builder constructs hand-made scenario topologies.
	Builder = topology.Builder
	// Domain is one ISP.
	Domain = topology.Domain
	// Host is an endhost.
	Host = topology.Host
	// RouterID identifies a router.
	RouterID = topology.RouterID
	// ASN identifies a domain.
	ASN = topology.ASN
	// GenConfig parameterises the synthetic topology generators.
	GenConfig = topology.GenConfig
)

// Addresses.
type (
	// V4 is an underlay (IPv(N-1)) address.
	V4 = addr.V4
	// VN is a 128-bit IPvN address.
	VN = addr.VN
	// Prefix is an underlay CIDR block.
	Prefix = addr.Prefix
	// VNPrefix is an IPvN CIDR block.
	VNPrefix = addr.VNPrefix
)

// The deployment machinery.
type (
	// Evolution is one IPvN deployment over one internet — the library's
	// central type.
	Evolution = core.Evolution
	// Config parameterises an Evolution.
	Config = core.Config
	// Delivery is the accounting of one end-to-end IPvN transmission.
	Delivery = core.Delivery
	// Option selects the §3.2 anycast deployment option.
	Option = anycast.Option
	// EgressPolicy selects the §3.3.2 egress policy.
	EgressPolicy = bgpvn.EgressPolicy
	// BoneConfig parameterises vN-Bone construction.
	BoneConfig = vnbone.Config
	// Summary is a descriptive-statistics bundle.
	Summary = metrics.Summary
)

// IPvN capabilities built on the deployment.
type (
	// Multicast is the IPvN group-delivery capability running over the
	// vN-Bone — the paper's motivating use case, deployed evolvably.
	Multicast = vncast.Service
	// MulticastGroup is one IPvN group.
	MulticastGroup = vncast.Group
	// MulticastDelivery accounts one group transmission vs repeated
	// unicast.
	MulticastDelivery = vncast.Delivery
)

// Experiments and economics.
type (
	// Table is one experiment's output.
	Table = experiments.Table
	// AdoptionParams parameterises the §2.1 adoption-dynamics model.
	AdoptionParams = econ.Params
	// AdoptionModel is the adoption game itself.
	AdoptionModel = econ.Model
)

// Observability (OBSERVABILITY.md). A Tracer handed to one delivery
// through Evolution.SendTraced receives span events for every leg of it;
// Counters tally evolution-wide totals whether or not a delivery is
// traced.
type (
	// Tracer receives per-delivery span events.
	Tracer = trace.Tracer
	// TraceEvent is one span event of a delivery.
	TraceEvent = trace.Event
	// TraceRecorder is a Tracer that appends events into memory.
	TraceRecorder = trace.Recorder
	// DropReason classifies why a delivery failed.
	DropReason = trace.DropReason
	// CounterSnapshot is a point-in-time copy of an Evolution's counters
	// (Evolution.Snapshot).
	CounterSnapshot = trace.Snapshot
)

// Live overlay prototype.
type (
	// OverlayRegistry maps underlay addresses to live UDP endpoints.
	OverlayRegistry = overlaynet.Registry
	// OverlayNode is a live vN router or endhost on a real socket.
	OverlayNode = overlaynet.Node
	// OverlayStats are one live node's forwarding counters.
	OverlayStats = overlaynet.Stats
	// LiveOverlay is a UDP overlay provisioned from a simulated
	// Evolution (simulator = control plane, sockets = data plane).
	LiveOverlay = livebridge.Overlay
	// FaultConfig parameterises seeded wire-fault injection on the live
	// overlay (drop/duplicate/delay rates, partitions).
	FaultConfig = overlaynet.FaultConfig
	// FaultTransport is the fault layer every live wire write passes
	// through once installed on an OverlayRegistry.
	FaultTransport = overlaynet.FaultTransport
	// ReliableConfig parameterises the acked mode; acks take the receiver's anycast route.
	ReliableConfig = overlaynet.ReliableConfig
	// PeerStatus is one row of a live node's peer-health table.
	PeerStatus = overlaynet.PeerStatus
)

// Anycast deployment options (§3.2).
const (
	// Option1 propagates non-aggregatable anycast host routes globally.
	Option1 = anycast.Option1
	// Option2 roots the anycast address in a default ISP's aggregate.
	Option2 = anycast.Option2
	// OptionGIA uses Katabi et al.'s indicator-prefixed addresses with
	// home-domain fallback and an optional search extension.
	OptionGIA = anycast.OptionGIA
)

// Egress policies (§3.3.2, Figures 3–4).
const (
	// ExitEarly leaves the vN-Bone at the ingress router.
	ExitEarly = bgpvn.ExitEarly
	// PathInformed exits at the last participant on the underlay AS path.
	PathInformed = bgpvn.PathInformed
	// ProxyInformed uses advertising-by-proxy distances.
	ProxyInformed = bgpvn.ProxyInformed
)

// New creates an IPvN deployment over net. See Config for the knobs; the
// zero Config is option 2 with the paper's defaults and requires
// DefaultAS to be set.
func New(net *Network, cfg Config) (*Evolution, error) {
	return core.New(net, cfg)
}

// NewBuilder starts a hand-made topology (the figure scenarios are built
// this way).
func NewBuilder() *Builder { return topology.NewBuilder() }

// TransitStub generates the classic two-tier internet: nTransit transit
// providers in a peering mesh, each with stubsPerTransit customer stubs,
// a fraction multihomed.
func TransitStub(nTransit, stubsPerTransit int, multihomeFrac float64, cfg GenConfig) (*Network, error) {
	return topology.TransitStub(nTransit, stubsPerTransit, multihomeFrac, cfg)
}

// RingOfDomains generates k peered domains in a ring.
func RingOfDomains(k int, cfg GenConfig) (*Network, error) {
	return topology.RingOfDomains(k, cfg)
}

// LineOfDomains generates the live overlay demonstrations' world: stub
// A, transits T1..Tn each the provider of the one before it, and stub B
// below Tn, one router per domain; Hosts[0] is A's host, Hosts[1] B's.
func LineOfDomains(n int) (*Network, error) { return topology.LineOfDomains(n) }

// Waxman generates a random geometric AS graph.
func Waxman(nDomains int, alpha, beta float64, cfg GenConfig) (*Network, error) {
	return topology.Waxman(nDomains, alpha, beta, cfg)
}

// BarabasiAlbert generates a preferential-attachment AS graph.
func BarabasiAlbert(nDomains, m int, cfg GenConfig) (*Network, error) {
	return topology.BarabasiAlbert(nDomains, m, cfg)
}

// NewMulticast creates the IPv8-multicast capability over a deployment:
// hosts subscribe via anycast (universal access) and group traffic rides
// a shared tree over the vN-Bone.
func NewMulticast(evo *Evolution) *Multicast { return vncast.New(evo) }

// NewAdoptionModel creates the §2.1 adoption-dynamics model with customer
// shares derived from a network's host counts.
func NewAdoptionModel(p AdoptionParams, net *Network) (*AdoptionModel, error) {
	return econ.NewModelFromNetwork(p, net)
}

// Summarize computes descriptive statistics of a sample (e.g. the
// stretch sample from Evolution.StretchSample).
func Summarize(xs []float64) Summary { return metrics.Summarize(xs) }

// ProvisionLiveOverlay instantiates a live UDP overlay for an Evolution's
// current deployment: one node per vN router and per host, routes and
// anycast resolution driven by the simulated control plane. Close it when
// done.
func ProvisionLiveOverlay(evo *Evolution) (*LiveOverlay, error) {
	return livebridge.Provision(evo)
}

// NewFaultTransport creates a seeded wire-fault injector; install it with
// OverlayRegistry.SetFaultTransport to subject every live send to
// deterministic drop/duplicate/delay faults and pairwise partitions.
func NewFaultTransport(cfg FaultConfig) *FaultTransport {
	return overlaynet.NewFaultTransport(cfg)
}

// SelfAddress derives the §3.3.2 temporary IPvN address for a host of a
// non-participating provider.
func SelfAddress(underlay V4) VN { return addr.SelfAddress(underlay) }

// DomainVNPrefix is the native IPvN block delegated to an adopting domain.
func DomainVNPrefix(asn ASN) VNPrefix { return addr.DomainVNPrefix(int(asn)) }

// ParseV4 parses a dotted-quad underlay address.
func ParseV4(s string) (V4, error) { return addr.ParseV4(s) }

// NewTraceRecorder creates an in-memory Tracer for use with
// Evolution.SendTraced.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// Experiments lists every reproduction experiment (DESIGN.md §4) in id
// order.
func Experiments() []string {
	var out []string
	for _, e := range experiments.All() {
		out = append(out, e.ID)
	}
	return out
}

// RunExperiment runs one experiment by id ("E1".."E21") with the given
// seed and returns its table.
func RunExperiment(id string, seed int64) (*Table, error) {
	for _, e := range experiments.All() {
		if e.ID == id {
			return e.Run(seed)
		}
	}
	return nil, fmt.Errorf("evolve: unknown experiment %q (have %v)", id, Experiments())
}
