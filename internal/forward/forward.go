// Package forward simulates ordinary IPv(N-1) unicast forwarding over the
// modelled internet: inter-domain hops follow BGP policy, intra-domain
// hops follow the converged IGP. This is the baseline data path — what a
// packet experiences *without* any IPvN machinery — and also the final
// "tunnel to the destination's underlay address" leg of IPvN delivery to
// self-addressed hosts (§3.3.2).
package forward

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/graph"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/underlay"
)

// Errors returned by the engine.
var (
	// ErrNoRoute: no BGP route covers the destination.
	ErrNoRoute = errors.New("forward: no route to destination")
	// ErrHostNotFound: the covering prefix's origin domain has no host or
	// router bearing the destination address.
	ErrHostNotFound = errors.New("forward: destination address unassigned in origin domain")
	// ErrLoop: inconsistent routing state produced a forwarding loop.
	ErrLoop = errors.New("forward: forwarding loop")
	// ErrUnreachable: an intra-domain segment of the path is severed
	// (the domain is internally partitioned by link failures).
	ErrUnreachable = errors.New("forward: destination unreachable over failed links")
)

// Engine prices unicast paths: every trajectory is a Walk, which keeps
// the decisions (where the packet stands, the domains it crossed) and the
// summed cost, never the IPv(N-1) routers in between.
type Engine struct {
	net *topology.Network
	bgp *bgp.System
	igp *underlay.View
	// walks recycles Walk buffers: Begin takes one, End returns it.
	walks sync.Pool
}

// NewEngine returns a forwarding engine over the given routing state.
func NewEngine(net *topology.Network, bgpSys *bgp.System, igp *underlay.View) *Engine {
	return &Engine{net: net, bgp: bgpSys, igp: igp, walks: sync.Pool{New: func() any { return new(Walk) }}}
}

// Walk is a unicast trajectory under construction, its cost summed as it
// goes. Hop and Intra are the only two ways a packet moves, so every
// trajectory in the simulator — baseline unicast here, anycast
// redirection in internal/anycast, which is this walk with a capture test
// at each domain entry (§3.2: "unicast routing delivers them to the
// closest IPvN router") — is costed and loop-checked by the same code. It
// records where the packet stands and the domains it crossed, not the
// routers inside them. Its ASPath buffer is pooled: what outlives End is
// a copy (Exact).
type Walk struct {
	// ASPath is the domain-level path so far.
	ASPath []topology.ASN
	// Cost is the summed link cost so far.
	Cost int64

	at topology.RouterID
	// toward is BGP's routing toward the destination, resolved by the
	// first Hop and again whenever a Hop names another destination.
	toward bgp.Toward
	// plan is the rest of the AS path of the route the domain the packet
	// stands in selected; Hop moves along it. planned marks a plan read on
	// a chain of one prefix (bgp.Toward.Prefixes), which every later hop
	// follows instead of asking toward again; otherwise each hop looks its
	// route up afresh. Re-resolving toward or reopening the walk drops it.
	plan    []topology.ASN
	planned bool
}

// At is the router the packet stands at.
func (w *Walk) At() topology.RouterID { return w.at }

// Domain is the domain the packet stands in.
func (w *Walk) Domain() topology.ASN { return w.ASPath[len(w.ASPath)-1] }

// Exact returns a copy of s with no spare capacity: the form in which a
// cache retains part of a walk, so an entry never pins a pooled buffer.
func Exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// Begin opens a walk at router from. End it when done.
func (e *Engine) Begin(from topology.RouterID) *Walk {
	w := e.walks.Get().(*Walk)
	e.open(w, from)
	return w
}

// open starts w over at router from. It keeps w's BGP view, which holds
// for any walk toward the same destination, and drops the plan, which
// was read at another AS.
func (e *Engine) open(w *Walk, from topology.RouterID) {
	w.ASPath = append(w.ASPath[:0], e.net.DomainOf(from))
	w.Cost, w.at = 0, from
	w.plan, w.planned = nil, false
}

// End recycles w, which must not be used afterwards. The view and the
// plan go: a pooled walk pins no BGP generation or path arena, and the
// next walk resolves afresh.
func (e *Engine) End(w *Walk) {
	w.toward = bgp.Toward{}
	w.plan, w.planned = nil, false
	e.walks.Put(w)
}

// Hop forwards the packet one inter-domain hop toward dst: the domain's
// BGP route names the next-hop AS, hot-potato routing picks the border
// link toward it, and the packet crosses the domain to that border and
// the link to the neighbour's router. When dst's match chain is one
// prefix, the route the walk looked up names every later next hop too,
// and the walk follows it without asking BGP again. local reports
// instead (nothing moved) that the domain the packet stands in
// originates the covering prefix itself. On an error the walk is
// unchanged: ErrNoRoute when no BGP route covers dst, ErrUnreachable when
// intra-domain failures sever the way to the border, ErrLoop when the
// next domain is one the walk has already crossed.
func (e *Engine) Hop(w *Walk, dst addr.V4) (local bool, err error) {
	if !w.toward.Resolves(dst) {
		e.bgp.Toward(dst, &w.toward)
		w.plan, w.planned = nil, false
	}
	asn := w.Domain()
	if !w.planned {
		route, ok := w.toward.Lookup(asn)
		if !ok {
			return false, ErrNoRoute
		}
		w.plan, w.planned = route.Path, w.toward.Prefixes() == 1
	}
	if len(w.plan) == 0 {
		return true, nil
	}
	next := w.plan[0]
	link, d, ok := e.igp.Exit(w.at, w.toward.LinksBetween(asn, next))
	if !ok {
		return false, fmt.Errorf("forward: BGP chose non-adjacent AS%d from AS%d", next, asn)
	}
	if d >= graph.Inf {
		return false, ErrUnreachable
	}
	if slices.Contains(w.ASPath, next) {
		return false, ErrLoop
	}
	w.Cost += d + link.Latency
	w.at = link.To
	w.ASPath = append(w.ASPath, next)
	w.plan = w.plan[1:]
	return false, nil
}

// Intra moves the packet to router to of the domain it stands in, over
// the converged IGP. It reports false, moving nothing, when link failures
// have severed the way.
func (e *Engine) Intra(w *Walk, to topology.RouterID) bool {
	d := e.igp.IntraDist(w.at, to)
	if d >= graph.Inf {
		return false
	}
	w.Cost += d
	w.at = to
	return true
}

// Deliver walks w the rest of the way to dst, a router loopback or a host
// address, the host's access link included. host is dst's host when the
// caller holds it, nil to look dst up. It returns the host delivered to,
// nil for a router.
func (e *Engine) Deliver(w *Walk, dst addr.V4, host *topology.Host) (*topology.Host, error) {
	for {
		local, err := e.Hop(w, dst)
		if err != nil {
			return nil, err
		}
		if local {
			break
		}
	}
	// The intra-domain tail: dst is a host address or a router loopback
	// (one address pool, so never both) of the domain the walk ended in.
	var to topology.RouterID
	if host == nil {
		host = e.net.FindHost(dst)
	}
	if host != nil && host.Domain == w.Domain() {
		to = host.Attach
	} else if r := e.net.RouterByLoopback(dst); r != nil && r.Domain == w.Domain() {
		to, host = r.ID, nil
	} else {
		return nil, ErrHostNotFound
	}
	if !e.Intra(w, to) {
		return nil, ErrUnreachable
	}
	if host != nil {
		w.Cost += host.AccessLatency
	}
	return host, nil
}

// FromRouter prices a packet from a router to dst, a router loopback or
// a host address (the host's access link included).
func (e *Engine) FromRouter(from topology.RouterID, dst addr.V4) (int64, error) {
	w := e.Begin(from)
	defer e.End(w)
	if _, err := e.Deliver(w, dst, nil); err != nil {
		return 0, err
	}
	return w.Cost, nil
}

// HostToHost prices a packet between two hosts, including both access
// links. This is the baseline against which IPvN path stretch is measured.
func (e *Engine) HostToHost(src, dst *topology.Host) (int64, error) {
	w := e.walks.Get().(*Walk)
	defer e.End(w)
	return e.BaselineCostOn(w, src, dst)
}

// BaselineCostOn is HostToHost on w, reopened at src's attach router. w
// keeps the BGP view it holds, so a walk that has just delivered to dst
// (a flow's tail) prices the flow's baseline without resolving dst again.
// w stays the caller's to End.
func (e *Engine) BaselineCostOn(w *Walk, src, dst *topology.Host) (int64, error) {
	e.open(w, src.Attach)
	if _, err := e.Deliver(w, dst.Addr, dst); err != nil {
		return 0, err
	}
	return w.Cost + src.AccessLatency, nil
}

// DomainDistance returns the BGP AS-hop count from a domain to the domain
// owning dst (0 when local), which is exactly the information an IPvN
// border router obtains from its domain's BGPv(N-1) tables (§3.3.2).
func (e *Engine) DomainDistance(from topology.ASN, dst addr.V4) (int, bool) {
	route, ok := e.bgp.Lookup(from, dst)
	if !ok {
		return 0, false
	}
	return len(route.Path), true
}

// DomainPath returns the AS-level BGP path from a domain toward dst,
// starting at from.
func (e *Engine) DomainPath(from topology.ASN, dst addr.V4) ([]topology.ASN, bool) {
	return e.bgp.ASPath(from, dst)
}
