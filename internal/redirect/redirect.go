// Package redirect implements the paper's §2 comparison of redirection
// designs — the mechanisms by which an endhost's IPvN packets find their
// way to an IPvN router:
//
//   - AnycastRedirector (§2.3, network-level): packets to the deployment's
//     anycast address are steered by routing itself; always current, needs
//     no lookups, works under partial deployment and participation.
//   - BrokerRedirector (§2.2, application-level via third parties): a
//     lookup service that gathers deployment information from ISPs and
//     returns a nearby IPvN router's unicast address. Its fidelity is
//     parameterised by *coverage* (ISPs have to choose to share deployment
//     data with the broker) and *staleness* (the broker's view is a
//     snapshot that decays as deployment evolves).
//   - ISPLookupRedirector (§2.2, application-level via one's own ISP):
//     works only when the host's own ISP participates and assists —
//     precisely the failure of universal access the paper predicts.
package redirect

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/forward"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// Errors.
var (
	// ErrNoAssistance: the host's own ISP neither deploys IPvN nor helps
	// its clients find it.
	ErrNoAssistance = errors.New("redirect: host's ISP offers no IPvN lookup assistance")
	// ErrStaleReferral: the broker referred the client to a router that no
	// longer serves IPvN.
	ErrStaleReferral = errors.New("redirect: broker referral is stale")
	// ErrNoReferral: the broker knows of no IPvN router at all.
	ErrNoReferral = errors.New("redirect: broker has no IPvN routers on record")
)

// Result is a successful redirection.
type Result struct {
	// Member is the IPvN router the host's packets reach.
	Member topology.RouterID
	// Cost is the underlay cost from the host to Member.
	Cost int64
}

// Redirector is the common interface of the three designs.
type Redirector interface {
	// Redirect determines where h's IPvN packets land.
	Redirect(h *topology.Host) (Result, error)
	// Name identifies the design in experiment output.
	Name() string
}

// Traced wraps a Redirector with observability: every decision is
// tallied in c (successful redirects, failures as DropNoIngress, per-AS
// ingress load when net is non-nil) and, when tr is non-nil, emitted as
// a KindRedirect trace event. c may be nil to trace without counting.
func Traced(r Redirector, tr trace.Tracer, c *trace.Counters, net *topology.Network) Redirector {
	return &tracedRedirector{r: r, tr: tr, c: c, net: net}
}

type tracedRedirector struct {
	r   Redirector
	tr  trace.Tracer
	c   *trace.Counters
	net *topology.Network
}

// Name implements Redirector by delegation.
func (t *tracedRedirector) Name() string { return t.r.Name() }

// Redirect implements Redirector, observing the wrapped decision.
func (t *tracedRedirector) Redirect(h *topology.Host) (Result, error) {
	res, err := t.r.Redirect(h)
	if err != nil {
		if t.c != nil {
			t.c.Drop(trace.DropNoIngress)
		}
		if t.tr != nil {
			t.tr.Event(trace.Event{Kind: trace.KindDrop, Router: -1, Reason: trace.DropNoIngress})
		}
		return res, err
	}
	var as topology.ASN
	if t.net != nil {
		as = t.net.DomainOf(res.Member)
	}
	if t.c != nil {
		t.c.Redirect(false)
		if as != 0 {
			t.c.Ingress(as)
		}
	}
	if t.tr != nil {
		t.tr.Event(trace.Event{
			Kind: trace.KindRedirect, Router: res.Member, AS: as, Cost: res.Cost,
		})
	}
	return res, nil
}

// AnycastRedirector is network-level redirection (§2.3/§3.1).
type AnycastRedirector struct {
	Svc *anycast.Service
	Dep *anycast.Deployment
}

// Name implements Redirector.
func (a *AnycastRedirector) Name() string { return "anycast" }

// Redirect implements Redirector via the anycast trajectory.
func (a *AnycastRedirector) Redirect(h *topology.Host) (Result, error) {
	res, err := a.Svc.ResolveFromHost(h, a.Dep.Addr)
	if err != nil {
		return Result{}, err
	}
	return Result{Member: res.Member, Cost: res.Cost}, nil
}

// BrokerRedirector is an application-level third-party lookup service.
type BrokerRedirector struct {
	dep *anycast.Deployment
	fwd *forward.Engine
	net *topology.Network

	// coverage is the fraction of participant ISPs that share deployment
	// data with this broker.
	coverage float64
	rng      *rand.Rand

	// snapshot is the broker's (possibly stale) member directory.
	snapshot []topology.RouterID
}

// NewBroker creates a broker with the given ISP coverage in [0,1]; seed
// fixes which ISPs cooperate. Call Refresh to take the initial directory
// snapshot.
func NewBroker(net *topology.Network, fwd *forward.Engine, dep *anycast.Deployment, coverage float64, seed int64) *BrokerRedirector {
	return NewBrokerWithRand(net, fwd, dep, coverage, rand.New(rand.NewSource(seed)))
}

// NewBrokerWithRand is NewBroker with the randomness source injected —
// never the global math/rand, so broker behaviour stays deterministic and
// free of cross-instance contention.
func NewBrokerWithRand(net *topology.Network, fwd *forward.Engine, dep *anycast.Deployment, coverage float64, rng *rand.Rand) *BrokerRedirector {
	if coverage < 0 {
		coverage = 0
	}
	if coverage > 1 {
		coverage = 1
	}
	return &BrokerRedirector{
		dep:      dep,
		fwd:      fwd,
		net:      net,
		coverage: coverage,
		rng:      rng,
	}
}

// Name implements Redirector.
func (b *BrokerRedirector) Name() string {
	return fmt.Sprintf("broker(cov=%.2f)", b.coverage)
}

// Refresh re-gathers deployment information from the cooperating ISPs.
// Between calls the directory ages: routers that joined are unknown,
// routers that left are phantom referrals.
func (b *BrokerRedirector) Refresh() {
	b.snapshot = b.snapshot[:0]
	parts := b.dep.ParticipatingASes()
	// Deterministically sample cooperating ISPs.
	cooperating := map[topology.ASN]bool{}
	for _, asn := range parts {
		if b.rng.Float64() < b.coverage {
			cooperating[asn] = true
		}
	}
	// Guarantee at least one cooperator when coverage > 0 and there are
	// participants (the broker business wouldn't exist otherwise).
	if len(cooperating) == 0 && b.coverage > 0 && len(parts) > 0 {
		cooperating[parts[0]] = true
	}
	for _, asn := range parts {
		if !cooperating[asn] {
			continue
		}
		b.snapshot = append(b.snapshot, b.dep.MembersIn(asn)...)
	}
	sort.Slice(b.snapshot, func(i, j int) bool { return b.snapshot[i] < b.snapshot[j] })
}

// Redirect implements Redirector: return the directory entry with the
// cheapest unicast path from the host, then tunnel to its unicast address.
// A referral to a router that has since withdrawn fails.
func (b *BrokerRedirector) Redirect(h *topology.Host) (Result, error) {
	if len(b.snapshot) == 0 {
		return Result{}, ErrNoReferral
	}
	type cand struct {
		member topology.RouterID
		cost   int64
	}
	best := cand{member: -1}
	for _, m := range b.snapshot {
		p, err := b.fwd.FromRouter(h.Attach, b.net.Router(m).Loopback)
		if err != nil {
			continue
		}
		if cost := p.Cost + h.AccessLatency; best.member < 0 || cost < best.cost {
			best = cand{member: m, cost: cost}
		}
	}
	if best.member < 0 {
		return Result{}, ErrNoReferral
	}
	// The referral is to a concrete unicast address; if that router has
	// withdrawn from the deployment since the snapshot, the client's
	// tunnelled packets arrive at a router that no longer speaks IPvN.
	stillMember := false
	for _, m := range b.dep.Members() {
		if m == best.member {
			stillMember = true
			break
		}
	}
	if !stillMember {
		return Result{}, ErrStaleReferral
	}
	return Result{Member: best.member, Cost: best.cost}, nil
}

// ISPLookupRedirector models each ISP running its own lookup service for
// its customers — available only where the ISP participates.
type ISPLookupRedirector struct {
	Svc *anycast.Service
	Dep *anycast.Deployment
	Net *topology.Network
	Igp interface {
		ClosestIn(topology.RouterID, []topology.RouterID) (topology.RouterID, int64, bool)
	}
}

// Name implements Redirector.
func (i *ISPLookupRedirector) Name() string { return "isp-lookup" }

// Redirect implements Redirector: the host's ISP answers only if it
// participates (assumptions A1/A2: non-offering ISPs have no incentive to
// run the service).
func (i *ISPLookupRedirector) Redirect(h *topology.Host) (Result, error) {
	members := i.Dep.MembersIn(h.Domain)
	if len(members) == 0 {
		return Result{}, ErrNoAssistance
	}
	m, dist, ok := i.Igp.ClosestIn(h.Attach, members)
	if !ok {
		return Result{}, ErrNoAssistance
	}
	return Result{Member: m, Cost: dist + h.AccessLatency}, nil
}
