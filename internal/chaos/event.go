// Package chaos is a deterministic, seeded fault-schedule engine for the
// evolvable-internet core: it drives an Evolution through randomized
// timelines of link failures, restores, flaps, deployment churn,
// endhost registration churn, provider choices and peering adverts, and
// after every event checks a pluggable
// set of invariants — chief among them the paper's Universal Access
// requirement (§3.1), phrased as agreement between the long-lived
// incrementally-reconverged Evolution and a from-scratch oracle rebuilt
// over the identical topology state. On a violation the engine greedily
// shrinks the schedule to a minimal reproducing subsequence and emits it
// as a replayable Go literal plus a per-delivery path trace, in the
// spirit of MACEMC-style liveness-bug search over deployed-system
// schedules (PAPERS.md).
package chaos

import (
	"fmt"
	"strings"

	"github.com/evolvable-net/evolve/internal/topology"
)

// Kind identifies a fault-schedule event type.
type Kind uint8

const (
	// FailIntra takes an intra-domain link down.
	FailIntra Kind = iota
	// RestoreIntra brings a previously failed intra-domain link back at
	// its original latency.
	RestoreIntra
	// FailInter takes an inter-domain link down.
	FailInter
	// RestoreInter brings a previously failed inter-domain link back
	// with its original relationship and latency.
	RestoreInter
	// FlapIntra fails and immediately restores an intra-domain link —
	// two reconvergences in one step, ending where it started.
	FlapIntra
	// FlapInter fails and immediately restores an inter-domain link.
	FlapInter
	// DeployRouter turns one router into an IPvN router.
	DeployRouter
	// UndeployRouter withdraws one router from the deployment.
	UndeployRouter
	// DeployDomain deploys IPvN in every router of a domain — also a
	// domain's rejoin after UndeployDomain.
	DeployDomain
	// RegisterHost opts a host into §3.3.2 anycast route registration.
	RegisterHost
	// UnregisterHost withdraws a host's registration.
	UnregisterHost
	// EnableProvider provisions a §2.1 provider-specific anycast address
	// for a participating domain (idempotent; a no-op for
	// non-participants).
	EnableProvider
	// Advertise has a participant advertise the anycast host route to
	// all its neighbours (Figure 2's peering advert; a no-op under
	// option 1 and for non-participants).
	Advertise
	// UndeployDomain withdraws every member of a domain: the AS leaves
	// participation whole.
	UndeployDomain
	// RegisterDomain registers every host of a domain in one batch.
	RegisterDomain

	numKinds
)

// subject says which Event fields name what an event acts on.
type subject uint8

const (
	subjectLink   subject = iota // A–B
	subjectRouter                // A
	subjectDomain                // ASN
	subjectHost                  // Host
)

// kinds declares every event kind once: its log label, its Go name (for
// replayable literals), its subject, and its weight in Generate's draw.
// The weights bias the generator toward the event mix that historically
// flushes out reconvergence bugs: failures slightly outnumber restores
// (so runs spend time in degraded states), and registration churn is
// frequent enough to exercise the §3.3.2 advertisement path under every
// topology mutation.
var kinds = [numKinds]struct {
	label, goName string
	subject       subject
	weight        int
}{
	FailIntra:      {"fail-intra", "FailIntra", subjectLink, 18},
	RestoreIntra:   {"restore-intra", "RestoreIntra", subjectLink, 12},
	FailInter:      {"fail-inter", "FailInter", subjectLink, 14},
	RestoreInter:   {"restore-inter", "RestoreInter", subjectLink, 10},
	FlapIntra:      {"flap-intra", "FlapIntra", subjectLink, 6},
	FlapInter:      {"flap-inter", "FlapInter", subjectLink, 5},
	DeployRouter:   {"deploy-router", "DeployRouter", subjectRouter, 8},
	UndeployRouter: {"undeploy-router", "UndeployRouter", subjectRouter, 6},
	DeployDomain:   {"deploy-domain", "DeployDomain", subjectDomain, 4},
	RegisterHost:   {"register-host", "RegisterHost", subjectHost, 10},
	UnregisterHost: {"unregister-host", "UnregisterHost", subjectHost, 7},
	EnableProvider: {"enable-provider", "EnableProvider", subjectDomain, 3},
	Advertise:      {"advertise", "Advertise", subjectDomain, 3},
	UndeployDomain: {"undeploy-domain", "UndeployDomain", subjectDomain, 3},
	RegisterDomain: {"register-domain", "RegisterDomain", subjectDomain, 3},
}

// String returns the human-readable event-kind label.
func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kinds[k].label
}

// GoName returns the Go identifier of the kind, for replayable literals.
func (k Kind) GoName() string {
	if k >= numKinds {
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
	return kinds[k].goName
}

// Event is one self-contained fault-schedule step. Restore latencies and
// inter-link specs are not carried here: the World records the initial
// topology and restores links to their original parameters, which keeps
// events replayable under arbitrary subsequence shrinking.
type Event struct {
	// Kind says what happens.
	Kind Kind
	// A and B are the link endpoints for link events; A alone is the
	// subject for DeployRouter/UndeployRouter.
	A, B topology.RouterID
	// ASN is the subject domain for DeployDomain, EnableProvider,
	// Advertise, UndeployDomain and RegisterDomain.
	ASN topology.ASN
	// Host is the subject endhost for RegisterHost/UnregisterHost.
	Host topology.HostID
}

// String renders the event as a one-line log entry.
func (e Event) String() string {
	log, _ := e.subjectText()
	return e.Kind.String() + log
}

// subjectText renders the event's subject for a log line and for a Go
// literal.
func (e Event) subjectText() (log, lit string) {
	if e.Kind >= numKinds {
		return "", ""
	}
	switch kinds[e.Kind].subject {
	case subjectLink:
		return fmt.Sprintf(" r%d–r%d", e.A, e.B), fmt.Sprintf(", A: %d, B: %d", e.A, e.B)
	case subjectRouter:
		return fmt.Sprintf(" r%d", e.A), fmt.Sprintf(", A: %d", e.A)
	case subjectDomain:
		return fmt.Sprintf(" AS%d", e.ASN), fmt.Sprintf(", ASN: %d", e.ASN)
	default:
		return fmt.Sprintf(" h%d", e.Host), fmt.Sprintf(", Host: %d", e.Host)
	}
}

// GoLiteral renders a schedule as a compilable []chaos.Event literal —
// the replayable artifact a shrunk failing schedule is reported as.
func GoLiteral(events []Event) string {
	var b strings.Builder
	b.WriteString("[]chaos.Event{\n")
	for _, e := range events {
		_, lit := e.subjectText()
		fmt.Fprintf(&b, "\t{Kind: chaos.%s%s},\n", e.Kind.GoName(), lit)
	}
	b.WriteString("}")
	return b.String()
}
