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

// Path is a simulated unicast trajectory.
type Path struct {
	// Routers is the router-level path, from the source router to the
	// destination's attachment (or the destination router itself).
	Routers []topology.RouterID
	// ASPath is the domain-level trajectory.
	ASPath []topology.ASN
	// Cost is the summed link cost, including the destination host's
	// access link when the destination is a host address.
	Cost int64
	// DstHost is set when the destination address belongs to a host.
	DstHost *topology.Host
	// DstRouter is the final router (the host's attach, or the addressed
	// router).
	DstRouter topology.RouterID
}

// Engine computes unicast paths.
type Engine struct {
	net *topology.Network
	bgp *bgp.System
	igp *underlay.View
}

// NewEngine returns a forwarding engine over the given routing state.
func NewEngine(net *topology.Network, bgpSys *bgp.System, igp *underlay.View) *Engine {
	return &Engine{net: net, bgp: bgpSys, igp: igp}
}

// Walk is a unicast trajectory under construction. Hop and Intra are the
// only two ways a packet moves, so every trajectory in the simulator —
// baseline unicast here, anycast redirection in internal/anycast, which is
// this walk with a capture test at each domain entry (§3.2: "unicast
// routing delivers them to the closest IPvN router") — is priced and
// loop-checked by the same code.
type Walk struct {
	// Routers is the router-level path so far, from the source router.
	Routers []topology.RouterID
	// ASPath is the domain-level path so far.
	ASPath []topology.ASN
	// Cost is the summed link cost of Routers.
	Cost int64
}

// At is the router the packet stands at.
func (w *Walk) At() topology.RouterID { return w.Routers[len(w.Routers)-1] }

// Domain is the domain the packet stands in.
func (w *Walk) Domain() topology.ASN { return w.ASPath[len(w.ASPath)-1] }

// Begin opens a walk at router from.
func (e *Engine) Begin(from topology.RouterID) Walk {
	return Walk{
		Routers: []topology.RouterID{from},
		ASPath:  []topology.ASN{e.net.DomainOf(from)},
	}
}

// Hop forwards the packet one inter-domain hop toward dst: the domain's
// BGP route names the next-hop AS, hot-potato routing picks the border
// link toward it, and the packet crosses the domain to that border and
// the link to the neighbour's router. local reports instead (nothing
// moved) that the domain the packet stands in originates the covering
// prefix itself. On an error the walk is unchanged: ErrNoRoute when no
// BGP route covers dst, ErrUnreachable when intra-domain failures sever
// the way to the border, ErrLoop when the next domain is one the walk
// has already crossed.
func (e *Engine) Hop(w *Walk, dst addr.V4) (local bool, err error) {
	at, asn := w.At(), w.Domain()
	route, ok := e.bgp.Lookup(asn, dst)
	if !ok {
		return false, ErrNoRoute
	}
	next := route.NextHop()
	if next == -1 {
		return true, nil
	}
	link, ok := e.igp.HotPotato(at, e.bgp.LinksBetween(asn, next))
	if !ok {
		return false, fmt.Errorf("forward: BGP chose non-adjacent AS%d from AS%d", next, asn)
	}
	d := e.igp.IntraDist(at, link.From)
	if d >= graph.Inf {
		return false, ErrUnreachable
	}
	if slices.Contains(w.ASPath, next) {
		return false, ErrLoop
	}
	w.Cost += d + link.Latency
	w.Routers = append(appendPath(w.Routers, e.igp.IntraPath(at, link.From)), link.To)
	w.ASPath = append(w.ASPath, next)
	return false, nil
}

// Intra moves the packet to router to of the domain it stands in, over
// the converged IGP. It reports false, moving nothing, when link failures
// have severed the way.
func (e *Engine) Intra(w *Walk, to topology.RouterID) bool {
	d := e.igp.IntraDist(w.At(), to)
	if d >= graph.Inf {
		return false
	}
	w.Cost += d
	w.Routers = appendPath(w.Routers, e.igp.IntraPath(w.At(), to))
	return true
}

// appendPath appends p to path, dropping p's first element when it
// duplicates path's last.
func appendPath(path, p []topology.RouterID) []topology.RouterID {
	if len(p) > 0 && len(path) > 0 && path[len(path)-1] == p[0] {
		p = p[1:]
	}
	return append(path, p...)
}

// FromRouter traces a packet from a router to the destination address.
func (e *Engine) FromRouter(from topology.RouterID, dst addr.V4) (Path, error) {
	w := e.Begin(from)
	for {
		local, err := e.Hop(&w, dst)
		if err != nil {
			return Path{}, err
		}
		if local {
			return e.finish(w, dst)
		}
	}
}

// finish completes the intra-domain tail of the walk: dst is a router
// loopback or a host address of the domain the walk ended in.
func (e *Engine) finish(w Walk, dst addr.V4) (Path, error) {
	asn := w.Domain()
	p := Path{}
	var access int64
	if r := e.net.RouterByLoopback(dst); r != nil && r.Domain == asn {
		p.DstRouter = r.ID
	} else if h := e.net.FindHost(dst); h != nil && h.Domain == asn {
		p.DstRouter, p.DstHost, access = h.Attach, h, h.AccessLatency
	} else {
		return Path{}, ErrHostNotFound
	}
	if !e.Intra(&w, p.DstRouter) {
		return Path{}, ErrUnreachable
	}
	p.Routers, p.ASPath, p.Cost = w.Routers, w.ASPath, w.Cost+access
	return p, nil
}

// HostToHost traces a packet between two hosts, including both access
// links. This is the baseline against which IPvN path stretch is measured.
func (e *Engine) HostToHost(src, dst *topology.Host) (Path, error) {
	p, err := e.FromRouter(src.Attach, dst.Addr)
	if err != nil {
		return Path{}, err
	}
	p.Cost += src.AccessLatency
	return p, nil
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
