// Package core assembles the paper's complete story: an internet where
// IPv(N-1) is ubiquitous, a new generation IPvN deployed in a subset of
// ISPs' routers, universal access through anycast redirection (§3.1),
// vN-Bone transit (§3.3), egress selection for self-addressed hosts
// (§3.3.2) and the final IPv(N-1) tunnel to the destination (§3.4). The
// central type, Evolution, answers the question the whole paper is about:
// what happens to an IPvN packet sent between any two hosts at any stage
// of deployment — and at what cost relative to native IPv(N-1) delivery.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/forward"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
	"github.com/evolvable-net/evolve/internal/underlay"
	"github.com/evolvable-net/evolve/internal/vnbone"
)

// Config parameterises an Evolution.
type Config struct {
	// Version is the IPvN generation number (the paper's running example
	// is 8). Default 8.
	Version uint8
	// Option selects the §3.2 anycast deployment option. Default Option2
	// (the paper's choice "given its practicality").
	Option anycast.Option
	// DefaultAS anchors an option-2 deployment (typically the first
	// mover). Ignored for option 1.
	DefaultAS topology.ASN
	// Group is the anycast group number of this deployment. Default 0.
	Group uint32
	// Egress selects the §3.3.2 egress policy for self-addressed
	// destinations. Default PathInformed.
	Egress bgpvn.EgressPolicy
	// Bone configures vN-Bone construction.
	Bone vnbone.Config
	// Fallback turns on the graceful-degradation layer (DESIGN.md §8.3):
	// per-flow health tracking and automatic delivery over the IPv(N-1)
	// baseline when the vN path is broken. false, the default, fails sends
	// fast: every benchmark workload and E1–E20 run on it, and it is the
	// twin that E21 and chaos's availability invariant compare a fallback
	// world against.
	Fallback bool
}

// ErrNotDeployed is returned by operations that need at least one IPvN
// router.
var ErrNotDeployed = errors.New("core: IPvN has no deployed routers")

// ErrNotAnycast is returned by ResolveAnycast for an address that is
// neither the deployment's anycast address nor a provider-specific one.
var ErrNotAnycast = errors.New("core: not an anycast address of this deployment")

// routingEpoch is one immutable generation of everything the send path
// needs: the bone, the BGPvN system, the registered hosts, a frozen clone
// of the deployment with the provider deployments derived from it, and
// the redirect cache.
// applyLocked builds the next epoch off the hot path and publishes it with
// one atomic store; senders load one epoch pointer and use that consistent
// view end-to-end, so a delivery mid-flight keeps the routing state it
// started with no matter what churns around it.
//
// err non-nil marks the epoch unusable (no members, or the bone build
// failed); every send against it drops, every query returns the error,
// and the next successful mutation clears it.
type routingEpoch struct {
	// seq equals the Evolution's mutSeq value at publication. A resolve
	// computed against this epoch may be cached only while mutSeq still
	// equals seq — once a mutator bumps mutSeq, in-flight resolutions
	// might already see half-mutated BGP/IGP state and must not be
	// memoised.
	seq uint64
	err error

	bone *vnbone.Bone
	vn   *bgpvn.System
	// registered is the set of hosts using the §3.3.2 anycast-based route
	// advertisement: copied whole by a registration, shared by every other
	// epoch. No /128 is stored: the domain carrying a registrant's /128
	// is where its attach router's anycast resolution lands, read from
	// the redirect cache when a flow needs it (see route).
	registered hostSet
	// dep is a deep clone frozen at publication, and provDeps the
	// provider-specific deployments derived from it; anycast capture on the
	// send path resolves against them, never against the live (mutable)
	// deployment, and every host's IPvN address follows dep's membership
	// (see addrOf). dep is set on every epoch, error epochs included (sends
	// key their flows by its address); provDeps may be nil on an epoch with
	// no members.
	dep      *anycast.Deployment
	provDeps map[topology.ASN]*anycast.Deployment
	// resolve is the redirect cache: router-level anycast resolutions (no
	// access-link cost) per (attach router, anycast address) for this
	// epoch's routing state (routing is deterministic between
	// reconvergences, so the cache is exact), striped by attach router.
	// Sends fill it, and so do registration and every routing epoch at
	// each registrant's attach router; entries whose trajectory the next
	// event cannot have touched are carried into the next epoch.
	resolve *striped[resolveKey, *anycast.Resolution]
	// flow is the flow cache: whole delivery skeletons per (src, dst,
	// deployment) flow, striped by source host. applyLocked starts it over
	// on every routing or registration change and shares it otherwise —
	// unlike the redirect cache there is no per-entry carry-over, because a
	// skeleton depends on bone meshes, BGPvN tables, IGP trees and the
	// baseline at once; a scoped carry would be one case there.
	flow *striped[flowKey, *flowEntry]
}

// Evolution is one IPvN deployment over one internet.
//
// Concurrency: any number of goroutines may Send (and SendVia,
// SendTraced, ResolveAnycast, HostVNAddr, Bone, VN, IngressShare,
// StretchSample) against one Evolution while membership, topology and
// routing mutations (DeployRouter, UndeployRouter, DeployDomain,
// RegisterEndhost, Fail*/Restore* links, AdvertiseToNeighbors, ...) run
// concurrently. The send path is lock-free: it loads the
// current routing epoch with a single atomic pointer read, and takes the
// Evolution's mutex only to recompute a flow whose first computation
// failed while a mutation was in flight (see flowSkeleton). Mutators
// serialize among themselves on that mutex, poke the substrate and say
// what they changed; one function, applyLocked, turns that change into
// the next epoch and publishes it atomically. Anycast routing has one
// door each way: readers ask ResolveAnycast, the peering advert goes
// through AdvertiseToNeighbors.
// Direct access to the exported routing substrate fields (Net, BGP, IGP,
// Anycast, Fwd, Dep) bypasses all of this: it is for single-goroutine
// inspection (bench layers, tests) and only safe while no other goroutine
// is mutating the Evolution.
type Evolution struct {
	Net     *topology.Network
	BGP     *bgp.System
	IGP     *underlay.View
	Anycast *anycast.Service
	Fwd     *forward.Engine
	Dep     *anycast.Deployment

	cfg Config

	// mu serialises mutators (and guards the canonical mutable state
	// below: the live membership maps inside Dep, registrants,
	// providerDeps). Sends take it only on the torn-computation retry.
	mu sync.Mutex
	// epoch is the published routing snapshot senders run on.
	epoch atomic.Pointer[routingEpoch]
	// mutSeq counts mutations; bumped under mu before a mutator touches
	// any shared routing state (see routingEpoch.seq).
	mutSeq atomic.Uint64

	// registrants counts the registered hosts behind each attach router,
	// indexed by RouterID: the routers every routing epoch resolves ahead
	// of the flows that need them (see applyLocked).
	registrants []int32
	// providerDeps holds the per-provider anycast deployments of §2.1's
	// user-choice-of-provider extension. They carry an address and no
	// members: each epoch derives a provider's members from its own frozen
	// dep (see anycast.Deployment.Restricted).
	providerDeps map[topology.ASN]*anycast.Deployment

	// watchMu guards the epoch-watcher registry; deliberately separate
	// from mu so subscribing never contends with mutators.
	watchMu   sync.Mutex
	watchNext int
	watchers  map[int]chan struct{}

	// counters is the always-on observability tally (atomic; see
	// internal/trace). Span events have no default receiver: only
	// SendTraced hands one in.
	counters trace.Counters

	// health is the per-flow health registry of the graceful-degradation
	// layer, striped by source host like the flow cache; nil when
	// Config.Fallback is false (fail fast), which is also the send
	// path's branch condition. Records are created on a flow's first send
	// and live as long as the Evolution: health history must span epochs.
	health *striped[flowKey, *flowHealth]

	// testBatchHook, when non-nil, runs before each packet of a batched
	// send with the packet's index. Tests use it to inject epoch churn at
	// exact points inside a batch; production paths never set it.
	testBatchHook func(i int)
}

// New creates an Evolution with no routers deployed yet.
func New(net *topology.Network, cfg Config) (*Evolution, error) {
	return newEvolution(net, cfg, deliveryShards)
}

// newEvolution is New at a given shard count (a power of two) for the send
// path's tables; every later epoch's caches take their width from the
// first one's.
func newEvolution(net *topology.Network, cfg Config, shards int) (*Evolution, error) {
	if cfg.Version == 0 {
		cfg.Version = 8
	}
	if cfg.Option == 0 {
		cfg.Option = anycast.Option2
	}
	igp := underlay.NewView(net)
	bgpSys := bgp.NewSystem(net)
	svc := anycast.NewService(net, bgpSys, igp)

	var dep *anycast.Deployment
	var err error
	switch cfg.Option {
	case anycast.Option1:
		dep, err = svc.DeployOption1(cfg.Group)
	case anycast.Option2:
		if net.Domain(cfg.DefaultAS) == nil {
			return nil, fmt.Errorf("core: option 2 requires a valid DefaultAS (got %d)", cfg.DefaultAS)
		}
		dep, err = svc.DeployOption2(cfg.Group, cfg.DefaultAS)
	case anycast.OptionGIA:
		if net.Domain(cfg.DefaultAS) == nil {
			return nil, fmt.Errorf("core: GIA requires a valid home DefaultAS (got %d)", cfg.DefaultAS)
		}
		dep, err = svc.DeployGIA(uint8(cfg.Group), cfg.DefaultAS)
	default:
		return nil, fmt.Errorf("core: unknown anycast option %d", cfg.Option)
	}
	if err != nil {
		return nil, err
	}
	e := &Evolution{
		Net:          net,
		BGP:          bgpSys,
		IGP:          igp,
		Anycast:      svc,
		Fwd:          forward.NewEngine(net, bgpSys, igp),
		Dep:          dep,
		cfg:          cfg,
		registrants:  make([]int32, len(net.Routers)),
		providerDeps: map[topology.ASN]*anycast.Deployment{},
	}
	if cfg.Fallback {
		e.health = newStriped[flowKey, *flowHealth](shards)
	}
	e.epoch.Store(&routingEpoch{
		err:     ErrNotDeployed,
		dep:     dep.Clone(),
		resolve: newStriped[resolveKey, *anycast.Resolution](shards),
		flow:    newStriped[flowKey, *flowEntry](shards),
	})
	return e, nil
}

// Snapshot returns a point-in-time copy of the evolution-wide counters.
func (e *Evolution) Snapshot() trace.Snapshot { return e.counters.Snapshot() }

// Config returns the deployment configuration.
func (e *Evolution) Config() Config { return e.cfg }

// AnycastAddr returns the deployment's well-known anycast address — the
// only thing an endhost ever needs to know.
func (e *Evolution) AnycastAddr() addr.V4 { return e.Dep.Addr }

// DeployRouter turns one router into an IPvN router.
func (e *Evolution) DeployRouter(id topology.RouterID) {
	e.DeployRouters([]topology.RouterID{id})
}

// DeployRouters deploys a batch of routers as one membership event: the
// routing epoch is rebuilt once, not once per router. Already-deployed
// routers are no-ops within the batch.
func (e *Evolution) DeployRouters(ids []topology.RouterID) {
	e.mutate(func() change {
		c := change{kind: changeMembers}
		for _, id := range ids {
			asn := e.Net.DomainOf(id)
			joined := !e.participatesLocked(asn)
			if !e.Anycast.AddMember(e.Dep, id) {
				continue
			}
			c.domains = append(c.domains, asn)
			c.toggled = c.toggled || joined
		}
		return c.when(len(c.domains) > 0)
	})
}

// UndeployRouter withdraws one router from the deployment.
func (e *Evolution) UndeployRouter(id topology.RouterID) {
	e.mutate(func() change {
		if !e.Anycast.RemoveMember(e.Dep, id) {
			return change{}
		}
		asn := e.Net.DomainOf(id)
		return change{kind: changeMembers, domains: []topology.ASN{asn}, toggled: !e.participatesLocked(asn)}
	})
}

// EnableProviderChoice provisions a provider-specific anycast address for
// a participating ISP — the §2.1 extension "offer users the choice of
// which IPvN service provider their IPvN packets are redirected to". The
// returned address behaves like the deployment's shared address except
// that only the chosen provider's routers accept it; use SendVia to route
// through it. Idempotent per provider.
func (e *Evolution) EnableProviderChoice(asn topology.ASN) (addr.V4, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pd, ok := e.providerDeps[asn]; ok {
		return pd.Addr, nil
	}
	if !e.participatesLocked(asn) {
		return 0, fmt.Errorf("core: AS%d does not participate in the deployment", asn)
	}
	e.mutSeq.Add(1)
	// A provider-specific address is naturally option 2, rooted in the
	// provider's own aggregate (group offset 1 keeps it clear of a shared
	// option-2 address also rooted there).
	pd, err := e.Anycast.DeployOption2(e.cfg.Group+1, asn)
	if err != nil {
		e.applyLocked(change{})
		return 0, err
	}
	e.providerDeps[asn] = pd
	e.applyLocked(change{kind: changeProvider})
	return pd.Addr, nil
}

// ProviderChoices returns the ASNs that have a provider-specific anycast
// address enabled, in ascending order.
func (e *Evolution) ProviderChoices() []topology.ASN {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]topology.ASN, 0, len(e.providerDeps))
	for asn := range e.providerDeps {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ProviderMembers returns the current members of asn's provider-specific
// deployment — the deployment's members in asn — nil when provider choice
// is not enabled for asn.
func (e *Evolution) ProviderMembers(asn topology.ASN) []topology.RouterID {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.providerDeps[asn]; !ok {
		return nil
	}
	return e.Dep.MembersIn(asn)
}

// DeployDomain deploys IPvN in count routers of a domain (all when count
// ≤ 0), modelling an ISP's partial internal rollout (assumption A1).
func (e *Evolution) DeployDomain(asn topology.ASN, count int) {
	d := e.Net.Domain(asn)
	if d == nil {
		return
	}
	if count <= 0 || count > len(d.Routers) {
		count = len(d.Routers)
	}
	e.DeployRouters(d.Routers[:count])
}

// Participates reports whether a domain has any IPvN routers.
func (e *Evolution) Participates(asn topology.ASN) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.participatesLocked(asn)
}

func (e *Evolution) participatesLocked(asn topology.ASN) bool {
	return e.Dep.HasMembersIn(asn)
}

// Bone returns the vN-Bone of the current routing epoch.
func (e *Evolution) Bone() (*vnbone.Bone, error) {
	ep := e.epoch.Load()
	if ep.err != nil {
		return nil, ep.err
	}
	return ep.bone, nil
}

// VN returns the BGPvN system of the current routing epoch. Its tables
// hold no registrant's /128, so routing a registered host through it
// with no origin gives the egress policy's answer, not the send path's:
// ask Route for that.
func (e *Evolution) VN() (*bgpvn.System, error) {
	ep := e.epoch.Load()
	if ep.err != nil {
		return nil, ep.err
	}
	return ep.vn, nil
}

// Route answers, on the current routing epoch, where a packet for dst
// that enters the vN-Bone at member ingress leaves it, and which rule
// decided (a KindEgress trace label): the decision a Send's flow skeleton
// takes, a registered destination's origin included. It counts nothing.
// Like a flow skeleton, an error met while a mutator moved on is asked
// again on the freshly published epoch with mutators locked out.
func (e *Evolution) Route(ingress topology.RouterID, dst *topology.Host) (bgpvn.Egress, string, error) {
	ep := e.epoch.Load()
	if ep.err != nil {
		return bgpvn.Egress{}, "", ep.err
	}
	eg, rule, err := e.route(ep, ingress, dst, ep.addrOf(dst))
	if err != nil && e.mutSeq.Load() != ep.seq {
		e.mu.Lock()
		defer e.mu.Unlock()
		if ep = e.epoch.Load(); ep.err != nil {
			return bgpvn.Egress{}, "", ep.err
		}
		return e.route(ep, ingress, dst, ep.addrOf(dst))
	}
	return eg, rule, err
}

// Ready reports whether the published routing epoch is usable — the
// cheap way to surface ErrNotDeployed before fanning out goroutines.
// (Epochs are built eagerly by mutators; there is never a pending
// rebuild to force.)
func (e *Evolution) Ready() error {
	if ep := e.epoch.Load(); ep.err != nil {
		return ep.err
	}
	return nil
}

// WatchEpochs subscribes to routing-epoch publications: the returned
// channel receives a (coalesced) tick after every epoch store — including
// error epochs, which watchers need to see to degrade gracefully. The
// channel has a one-slot buffer and notifications never block a mutator;
// a watcher that lags simply observes several publications as one tick
// and reconciles against the latest epoch, which is all that epoch-driven
// consumers (livebridge reconciliation) want anyway. The cancel func
// unsubscribes and must be called to release the watcher.
func (e *Evolution) WatchEpochs() (<-chan struct{}, func()) {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	if e.watchers == nil {
		e.watchers = map[int]chan struct{}{}
	}
	id := e.watchNext
	e.watchNext++
	ch := make(chan struct{}, 1)
	e.watchers[id] = ch
	return ch, func() {
		e.watchMu.Lock()
		defer e.watchMu.Unlock()
		delete(e.watchers, id)
	}
}

// notifyEpoch ticks every watcher, non-blocking (coalescing into the
// one-slot buffer). Called by publishLocked after the store.
func (e *Evolution) notifyEpoch() {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	for _, ch := range e.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// publishLocked is the one place an epoch becomes the published one:
// counted, stored, watchers ticked. Callers hold mu.
func (e *Evolution) publishLocked(ep *routingEpoch) {
	e.counters.Epoch()
	e.epoch.Store(ep)
	e.notifyEpoch()
}

// changeKind classifies a change; see change.
type changeKind uint8

const (
	// changeNone: nothing senders can see (a redundant or failed call).
	changeNone changeKind = iota
	// changeIntra: an intra-domain link in change.asn failed or came back.
	changeIntra
	// changeInter: an inter-domain link failed or came back.
	changeInter
	// changeReach: BGP reach changed and topology did not (the peering
	// advert).
	changeReach
	// changeMembers: routers of change.domains joined or left.
	changeMembers
	// changeProvider: a provider-specific deployment was added.
	changeProvider
	// changeRegistration: change.add registers hosts and change.drop
	// withdraws registered ones (an empty batch included).
	changeRegistration
)

// change is what one mutation did to the substrate, as its mutator
// reports it. applyLocked derives every consequence from it; no mutator
// decides what to invalidate, rebuild or carry. The zero value changed
// nothing.
type change struct {
	kind changeKind
	// asn is the domain of an intra-link event.
	asn topology.ASN
	// domains holds the domain of every router that joined or left;
	// toggled reports whether one of those domains joined or left
	// participation.
	domains []topology.ASN
	toggled bool
	// add and drop are the hosts a registration change registers and
	// withdraws.
	add, drop []*topology.Host
}

// when returns c if ok, the change of nothing otherwise.
func (c change) when(ok bool) change {
	if ok {
		return c
	}
	return change{}
}

// mutate is a mutator that validates nothing before it starts: under mu,
// mutSeq moves before poke touches the substrate, and what poke reports it
// changed is published.
func (e *Evolution) mutate(poke func() change) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mutSeq.Add(1)
	e.applyLocked(poke())
}

// applyLocked is the one place a mutation becomes the next routing epoch:
// it derives every consequence of c (DESIGN.md §8.1 has the table) and
// publishes the result, sealed under the current mutation sequence.
// Callers hold mu, bumped mutSeq before touching the substrate, and have
// applied the raw change.
//
//   - Nothing changed: the epoch is resealed, so the mutSeq gate on cache
//     stores opens again; everything is shared.
//   - A provider deployment: the providers are derived anew; routing is
//     shared.
//   - A registration: a copy of the registered set with the batch's bits
//     written, a fresh flow cache (skeletons bake the route in), and every
//     routing table shared. Each attach router the batch gives its first
//     registrant is resolved into the shared redirect cache, under mu on
//     forwarding state no mutator has touched. On an error epoch only the
//     set changes; the build that heals it resolves from it.
//   - A routing change (a link, BGP reach, membership): the IGP and BGP
//     forget what it can have moved, the deployment is frozen anew (host
//     addresses follow it), and a new bone is built, reusing every intra
//     mesh outside the dirty domain. The redirect cache carries the
//     entries whose trajectory avoids the touched domains (all of it is
//     suspect after an inter-link event, an advert or a participation
//     toggle), the flow cache starts over, and every attach router with a
//     registrant is resolved again — the endhost that "would periodically
//     repeat this process in order to adapt to spread in deployment"
//     (§3.3.2). With no members, or a bone that cannot be built, the epoch
//     is an error epoch instead: senders and queries report the error
//     until a later mutation heals it.
func (e *Evolution) applyLocked(c change) {
	prev := e.epoch.Load()
	next := *prev
	next.seq = e.mutSeq.Load()
	switch c.kind {
	case changeNone:
	case changeProvider:
		next.provDeps = e.providersOf(next.dep)
	case changeRegistration:
		next.registered = make(hostSet, (len(e.Net.Hosts)+63)/64)
		copy(next.registered, prev.registered)
		for _, h := range c.add {
			if next.registered.add(h.ID) {
				if e.registrants[h.Attach]++; e.registrants[h.Attach] == 1 {
					e.resolveAt(&next, next.dep, h.Attach, false)
				}
			}
		}
		for _, h := range c.drop {
			next.registered.remove(h.ID)
			e.registrants[h.Attach]--
		}
		if prev.err == nil {
			next.flow = prev.flow.fresh()
		}
	default:
		// touched scopes the redirect-cache eviction, dirty the intra meshes
		// rebuilt.
		var touched, dirty map[topology.ASN]bool
		carry := prev.err == nil
		switch c.kind {
		case changeIntra:
			// AS-level BGP depends on inter-domain topology and originations
			// alone; the chaos oracle invariant referees that claim.
			e.counters.InvalDomain()
			e.IGP.InvalidateDomain(c.asn)
			touched = map[topology.ASN]bool{c.asn: true}
			dirty = touched
		case changeInter:
			e.counters.InvalInter()
			e.IGP.InvalidateInter()
			e.BGP.Refresh()
			carry = false
		case changeReach:
			carry = false
		case changeMembers:
			e.counters.InvalDomain()
			touched = make(map[topology.ASN]bool, 1)
			for _, asn := range c.domains {
				touched[asn] = true
			}
			// A domain toggling participation changes Option-1 originations
			// and host addressing everywhere.
			carry = carry && !c.toggled
		}
		next = routingEpoch{seq: next.seq, err: ErrNotDeployed, registered: prev.registered, dep: e.Dep.Clone(), flow: prev.flow.fresh()}
		if next.dep.HasMembers() {
			next.provDeps = e.providersOf(next.dep)
			var prevBone *vnbone.Bone
			if prev.err == nil {
				prevBone = prev.bone
			}
			var stats vnbone.BuildStats
			next.bone, stats, next.err = vnbone.BuildIncremental(e.Anycast, e.IGP, next.dep, e.cfg.Bone, prevBone, dirty)
			if next.err != nil {
				// A failure is not a rebuild: BoneRebuild ticks only for
				// usable bones.
				e.counters.RebuildFailed()
			} else {
				e.counters.BoneRebuild()
				e.counters.BoneDomains(stats.DomainsReused, stats.DomainsRebuilt)
			}
		}
		if next.err != nil {
			next.resolve = prev.resolve.fresh()
			break
		}
		next.vn = bgpvn.New(next.bone, e.Fwd, e.Net)
		if carry {
			next.resolve = carryResolved(prev.resolve, touched)
		} else {
			next.resolve = prev.resolve.fresh()
		}
		// Resolving every attach router with a registrant decides no route
		// (a flow to a registrant would resolve its router itself), but the
		// mutSeq gate sheds senders' stores while a mutator runs, so
		// without it readers would walk every evicted trajectory again and
		// again. Here each is walked once, under mu, so the store is exact;
		// a router that cannot reach the deployment caches nothing, and its
		// registrants have no origin.
		for r, n := range e.registrants {
			if n > 0 {
				e.resolveAt(&next, next.dep, topology.RouterID(r), false)
			}
		}
	}
	e.publishLocked(&next)
}

// providersOf derives every provider-specific deployment of an epoch from
// the epoch's frozen dep: a provider's members are dep's members in its
// domain, so they cannot drift from the main deployment. Callers hold mu.
func (e *Evolution) providersOf(dep *anycast.Deployment) map[topology.ASN]*anycast.Deployment {
	provs := make(map[topology.ASN]*anycast.Deployment, len(e.providerDeps))
	for asn, pd := range e.providerDeps {
		provs[asn] = dep.Restricted(asn, pd)
	}
	return provs
}

// RegisterEndhost opts a host into the §3.3.2 anycast-based route
// advertisement the paper describes (and sets aside by default for its
// policy questions): the host locates a nearby IPvN router via anycast,
// and that router's domain advertises the host's temporary /128 into the
// IPvN routing fabric. Deliveries to the host then use native IPvN
// routing instead of egress-policy guesswork. The advertising domain
// follows deployment: it is wherever the host's attach router resolves to
// on the epoch a flow is sent on. Registration is best-effort — a host
// that cannot presently reach the deployment still goes on file and
// advertises once it can. An error means the deployment itself is
// unusable and nothing was registered.
func (e *Evolution) RegisterEndhost(h *topology.Host) error {
	return e.RegisterEndhosts([]*topology.Host{h})
}

// RegisterEndhosts registers a batch of hosts as one mutation and one
// published epoch: the current one with these hosts' bits set, whatever
// else is already registered, and one anycast resolution per attach
// router the batch gives its first registrant. An empty batch still
// publishes one.
func (e *Evolution) RegisterEndhosts(hosts []*topology.Host) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ep := e.epoch.Load(); ep.err != nil {
		return ep.err
	}
	e.mutSeq.Add(1)
	e.applyLocked(change{kind: changeRegistration, add: hosts})
	return nil
}

// UnregisterEndhost withdraws a host's advertised route: one mutation,
// one epoch that differs from the current one by that host's bit, no bone
// rebuild.
func (e *Evolution) UnregisterEndhost(h *topology.Host) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.epoch.Load().registered.has(h.ID) {
		return
	}
	e.mutSeq.Add(1)
	e.applyLocked(change{kind: changeRegistration, drop: []*topology.Host{h}})
}

// HostVNAddr returns a host's current IPvN address: native when its
// access provider participates, self-derived otherwise (§3.3.2).
func (e *Evolution) HostVNAddr(h *topology.Host) (addr.VN, error) {
	ep := e.epoch.Load()
	if ep.err != nil {
		return addr.VN{}, ep.err
	}
	return ep.addrOf(h), nil
}

// FormatTrace renders a recorded event sequence as a per-hop path trace
// with router names resolved against this Evolution's topology.
func (e *Evolution) FormatTrace(events []trace.Event) string {
	return trace.Format(events, func(id topology.RouterID) string {
		return e.Net.Router(id).Name
	})
}

// DescribeDelivery renders a delivery as a human-readable hop-by-hop
// trace: the anycast leg, the vN-Bone leg and the final tail, with router
// names and per-leg costs.
func (e *Evolution) DescribeDelivery(d Delivery) string {
	name := func(id topology.RouterID) string { return e.Net.Router(id).Name }
	pathStr := func(p []topology.RouterID) string {
		s := ""
		for i, r := range p {
			if i > 0 {
				s += " → "
			}
			s += name(r)
		}
		return s
	}
	out := fmt.Sprintf("%s → %s (stretch %.2f)\n", d.SrcVN, d.DstVN, d.Stretch)
	out += fmt.Sprintf("  anycast leg (cost %d): %s\n", d.Ingress.Cost, pathStr(d.Ingress.RouterPath))
	if d.VNHops > 0 {
		out += fmt.Sprintf("  vN-Bone leg (%d hops, cost %d, %s): %s\n",
			d.VNHops, d.Egress.BoneCost, d.Egress.Policy, pathStr(d.Egress.BonePath))
	} else {
		out += fmt.Sprintf("  vN-Bone leg: exits at ingress %s (%s)\n", name(d.Egress.Member), d.Egress.Policy)
	}
	if len(d.TailPath) > 1 {
		out += fmt.Sprintf("  tail leg (cost %d): %s\n", d.TailCost, pathStr(d.TailPath))
	} else {
		out += fmt.Sprintf("  tail leg (cost %d): local delivery\n", d.TailCost)
	}
	out += fmt.Sprintf("  total %d vs baseline %d\n", d.TotalCost, d.BaselineCost)
	return out
}

// FailIntraLink injects an intra-domain link failure; only the affected
// domain reconverges (IGP SPTs, bone intra mesh). It reports whether the
// link existed.
func (e *Evolution) FailIntraLink(a, b topology.RouterID) (ok bool) {
	e.mutate(func() change {
		ok = e.Net.FailIntraLink(a, b)
		return change{kind: changeIntra, asn: e.Net.DomainOf(a)}.when(ok)
	})
	return ok
}

// RestoreIntraLink repairs an intra-domain link. It reports false, and
// changes nothing, when the link is already up.
func (e *Evolution) RestoreIntraLink(a, b topology.RouterID, latency int64) (ok bool) {
	e.mutate(func() change {
		ok = e.Net.RestoreIntraLink(a, b, latency)
		return change{kind: changeIntra, asn: e.Net.DomainOf(a)}.when(ok)
	})
	return ok
}

// FailInterLink injects an inter-domain link failure; BGP re-converges
// around it. The removed link is returned for later restoration.
func (e *Evolution) FailInterLink(a, b topology.RouterID) (l topology.InterLink, ok bool) {
	e.mutate(func() change {
		l, ok = e.Net.FailInterLink(a, b)
		return change{kind: changeInter}.when(ok)
	})
	return l, ok
}

// RestoreInterLink repairs a previously failed inter-domain link. It
// reports false, and changes nothing, when l itself is already up (see
// topology.Network.RestoreInterLink for parallel links).
func (e *Evolution) RestoreInterLink(l topology.InterLink) (ok bool) {
	e.mutate(func() change {
		ok = e.Net.RestoreInterLink(l)
		return change{kind: changeInter}.when(ok)
	})
	return ok
}

// AdvertiseToNeighbors has participant asn advertise the deployment's
// anycast host route to the listed neighbours, NO_EXPORT — Figure 2's
// peering advert under option 2, the "search" extension under GIA. BGP
// reach changes, topology does not: the next epoch reuses every intra mesh
// and starts with empty redirect and flow caches. An error (option 1, or
// asn has no members) changes nothing.
func (e *Evolution) AdvertiseToNeighbors(asn topology.ASN, neighbors ...topology.ASN) (err error) {
	e.mutate(func() change {
		err = e.Anycast.AdvertiseToNeighbors(e.Dep, asn, neighbors...)
		return change{kind: changeReach}.when(err == nil)
	})
	return err
}

// ResolveAnycast answers where a packet sent from router from to anycast
// address a lands on the current routing epoch, and how it gets there: the
// redirect decision Send makes for a host attached at from (which adds
// its own AccessLatency to Cost), read through the same per-epoch cache.
// It is the one door to anycast routing for everything outside this
// package, safe beside any mutator; the Resolution's slices are the
// cache's own, read-only. ErrNotAnycast (allocation-free: a caller may
// probe every destination with it) when a is not an anycast address of
// this epoch, ErrNotDeployed while there are no members; an epoch whose
// bone failed to build still resolves — redirection needs membership and
// IPv(N-1) routing, not the bone. It counts nothing: redirects.* tally
// sends.
func (e *Evolution) ResolveAnycast(from topology.RouterID, a addr.V4) (anycast.Resolution, error) {
	ep := e.epoch.Load()
	d := ep.ingressAt(a)
	if d == nil {
		return anycast.Resolution{}, ErrNotAnycast
	}
	if errors.Is(ep.err, ErrNotDeployed) {
		return anycast.Resolution{}, ErrNotDeployed
	}
	res, _, err := e.resolveAt(ep, d, from, true)
	if err != nil {
		return anycast.Resolution{}, err
	}
	return *res, nil
}

// IngressShare returns, for every participating domain, the fraction of
// hosts whose anycast ingress lands there — the "attracted traffic" that
// assumption A4 converts into revenue.
func (e *Evolution) IngressShare() (map[topology.ASN]float64, error) {
	ep := e.epoch.Load()
	if ep.err != nil {
		return nil, ep.err
	}
	// The ingress is a function of the attach router: count hosts per
	// router, then resolve each router once through the epoch's cache.
	perRouter := map[topology.RouterID]int{}
	for _, h := range e.Net.Hosts {
		perRouter[h.Attach]++
	}
	counts := map[topology.ASN]int{}
	total := 0
	for r, n := range perRouter {
		res, _, err := e.resolveAt(ep, ep.dep, r, true)
		if err != nil {
			continue
		}
		counts[e.Net.DomainOf(res.Member)] += n
		total += n
	}
	out := map[topology.ASN]float64{}
	if total == 0 {
		return out, nil
	}
	for asn, c := range counts {
		out[asn] = float64(c) / float64(total)
	}
	return out, nil
}

// StretchSample sends between ordered host pairs, in host order, up to
// maxPairs (0 = unlimited) and returns the stretch of every delivery.
// Failed deliveries are counted in failures.
func (e *Evolution) StretchSample(maxPairs int) (sample []float64, failures int, err error) {
	// Surface ErrNotDeployed first, so a dead deployment is an error
	// rather than all-failures.
	if err := e.Ready(); err != nil {
		return nil, 0, err
	}
	sent := 0
	for _, src := range e.Net.Hosts {
		for _, dst := range e.Net.Hosts {
			if src.ID == dst.ID {
				continue
			}
			if maxPairs > 0 && sent == maxPairs {
				return sample, failures, nil
			}
			sent++
			d, err := e.Send(src, dst, nil)
			if err != nil {
				failures++
				continue
			}
			sample = append(sample, d.Stretch)
		}
	}
	return sample, failures, nil
}
