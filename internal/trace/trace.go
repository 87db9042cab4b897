// Package trace is the observability substrate of the evolvable
// architecture: per-delivery span events and evolution-wide counters for
// the paths the paper's whole argument is about — which anycast ingress a
// client lands on (§3.1), how many vN-Bone hops a delivery rides (§3.3),
// and where it exits back into IPv(N-1) (§3.3.2). The delivery core emits
// an Event at every decision point of a delivery; a Tracer receives them.
//
// A Tracer reaches the delivery core one way, per delivery, through
// core.Evolution.SendTraced. Every other send, bursts included, runs
// untraced: each emission site is guarded by a nil check, so it pays
// nothing beyond a handful of counter adds. Event is a plain value struct
// whose Detail strings are always pre-existing constants, so emitting into
// a Recorder costs one slice append and no per-field allocation.
//
// Counters are always on: a Counters value embedded in the delivery core
// tallies sends, deliveries, drops by reason (see DropReason for the
// taxonomy), redirect-cache hits and per-AS ingress load with atomics,
// and Snapshot returns a consistent-enough copy for live introspection
// (each counter is read atomically; the set is not a global atomic
// snapshot, so totals may be momentarily skewed by in-flight deliveries —
// monotonicity per counter is guaranteed).
//
// See OBSERVABILITY.md for the counter semantics and a worked example of
// reading a path trace.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/topology"
)

// Kind identifies a span event within one delivery.
type Kind uint8

const (
	// KindSend opens a delivery span at the source host.
	KindSend Kind = iota
	// KindRedirect is the anycast redirect decision: the chosen ingress
	// router (Router), its domain (AS) and the redirection cost.
	KindRedirect
	// KindBoneHop is one vN-Bone virtual hop: Router is the member
	// reached, Cost the virtual-link cost from the previous member.
	KindBoneHop
	// KindEgress is the egress decision: Router is the member where the
	// packet leaves the vN-Bone, Detail classifies how it was chosen
	// (native / registered /128 / an egress policy name).
	KindEgress
	// KindEncap is one tunnel encapsulation (Src/Dst are the outer
	// underlay endpoints).
	KindEncap
	// KindDecap is one tunnel decapsulation.
	KindDecap
	// KindDeliver closes a successful delivery span.
	KindDeliver
	// KindDrop closes a failed delivery span; Reason says why.
	KindDrop
	// KindFallback marks a delivery that rode the IPv(N-1) baseline path
	// instead of the vN-Bone: Detail classifies the trigger
	// (DetailFallbackState for a flow already in fallback,
	// DetailFallbackRescue for an in-line rescue of a failed vN attempt,
	// DetailFallbackErrEpoch for an error-epoch rescue), and Reason carries
	// the vN failure that triggered a rescue (DropNone for state sends).
	KindFallback
	// KindHealth marks a flow-health state transition observed on the
	// send path; Detail names the state entered (DetailHealthFallback,
	// DetailHealthProbation, DetailHealthRecovered).
	KindHealth
)

// String names the event kind the way formatted traces print it.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindRedirect:
		return "redirect"
	case KindBoneHop:
		return "bone-hop"
	case KindEgress:
		return "egress"
	case KindEncap:
		return "encap"
	case KindDecap:
		return "decap"
	case KindDeliver:
		return "deliver"
	case KindDrop:
		return "drop"
	case KindFallback:
		return "fallback"
	case KindHealth:
		return "health"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Egress-decision Detail labels (KindEgress). Policy-based decisions use
// the bgpvn.EgressPolicy String() constants instead.
const (
	// EgressNative: the destination is natively addressed in a
	// participant domain; BGPvN routed to its advertised prefix.
	EgressNative = "native"
	// EgressRegistered: the destination is self-addressed but registered
	// a /128 via the §3.3.2 anycast advertisement; native routing won.
	EgressRegistered = "registered-/128"
)

// Fallback and health Detail labels (KindFallback, KindHealth). Emitters
// must use these constants so tracing never allocates.
const (
	// DetailFallbackState: the flow was already in the fallback state, so
	// the send skipped the vN path entirely.
	DetailFallbackState = "fallback-state"
	// DetailFallbackRescue: the vN attempt failed and the delivery was
	// rescued in-line over the IPv(N-1) baseline path.
	DetailFallbackRescue = "fallback-rescue"
	// DetailFallbackErrEpoch: the routing state was an error epoch
	// (failed rebuild or undeployment) and the delivery rode the baseline.
	DetailFallbackErrEpoch = "fallback-error-epoch"
	// DetailHealthFallback: the flow entered the fallback state.
	DetailHealthFallback = "health-fallback"
	// DetailHealthProbation: a fallback probe succeeded and the flow
	// entered probation.
	DetailHealthProbation = "health-probation"
	// DetailHealthRecovered: the flow returned to the healthy state.
	DetailHealthRecovered = "health-recovered"
)

// Event is one span event of one delivery. It is a value type: emit it
// by value, never retain pointers into it.
type Event struct {
	// Kind says what happened.
	Kind Kind
	// Seq is the delivery's trace tag (the per-Evolution send sequence
	// number stamped into the IPvN header options); all events of one
	// delivery share it.
	Seq uint32
	// Router is the router at which the event occurred (-1 when the
	// event has no router, e.g. host-side encapsulation).
	Router topology.RouterID
	// AS is Router's domain (0 when unknown).
	AS topology.ASN
	// Cost is the event's cost contribution (redirect cost, virtual-hop
	// cost, tail cost on deliver).
	Cost int64
	// Src and Dst are the outer underlay endpoints of encap/decap
	// events.
	Src, Dst addr.V4
	// Reason is set on KindDrop.
	Reason DropReason
	// Detail is a static classification label (egress mode, link kind).
	// Emitters must only use constants or pre-existing strings here so
	// tracing never allocates per event.
	Detail string
}

// String renders one event as a single trace line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", e.Kind)
	if e.Router >= 0 {
		fmt.Fprintf(&b, " router=%d", e.Router)
	}
	if e.AS != 0 {
		fmt.Fprintf(&b, " as=%d", e.AS)
	}
	if e.Cost != 0 {
		fmt.Fprintf(&b, " cost=%d", e.Cost)
	}
	if e.Kind == KindEncap || e.Kind == KindDecap {
		fmt.Fprintf(&b, " outer=%s→%s", e.Src, e.Dst)
	}
	if e.Reason != DropNone {
		fmt.Fprintf(&b, " reason=%s", e.Reason)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// Tracer receives the span events of deliveries. Implementations must be
// safe for concurrent use when shared across concurrent Sends (the
// per-delivery Recorder used with SendTraced sees only one delivery).
type Tracer interface {
	Event(Event)
}

// Recorder is a Tracer that stores every event it receives, in order.
// It is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Event implements Tracer.
func (r *Recorder) Event(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Reset discards the recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}

// Format renders a recorded event sequence as a numbered per-hop path
// trace. name resolves router ids to display names (nil falls back to
// numeric ids).
func Format(events []Event, name func(topology.RouterID) string) string {
	if name == nil {
		name = func(id topology.RouterID) string { return fmt.Sprintf("router-%d", id) }
	}
	var b strings.Builder
	for i, e := range events {
		fmt.Fprintf(&b, "  %2d  %-8s", i, e.Kind)
		if e.Router >= 0 {
			fmt.Fprintf(&b, " %s", name(e.Router))
		}
		if e.AS != 0 {
			fmt.Fprintf(&b, " (AS%d)", e.AS)
		}
		if e.Cost != 0 {
			fmt.Fprintf(&b, " cost=%d", e.Cost)
		}
		if e.Kind == KindEncap || e.Kind == KindDecap {
			fmt.Fprintf(&b, " outer %s → %s", e.Src, e.Dst)
		}
		if e.Reason != DropNone {
			fmt.Fprintf(&b, " reason=%s", e.Reason)
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, " [%s]", e.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
