package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
	"github.com/evolvable-net/evolve/internal/vnbone"
)

// CheckContext carries per-step state to invariant checks. The oracle —
// a from-scratch Evolution over the current topology — is built lazily
// and shared by every invariant that wants one, so a step pays for at
// most one oracle construction per fallback setting.
type CheckContext struct {
	W     *World
	Step  int
	Event Event

	// oracles memoises the step's rebuilds by Config.Fallback.
	oracles map[bool]builtOracle
}

// builtOracle is one memoised oracle construction, failed or not.
type builtOracle struct {
	evo *core.Evolution
	err error
}

// Oracle returns the shared from-scratch rebuild for this step, configured
// like the live world.
func (c *CheckContext) Oracle() (*core.Evolution, error) {
	return c.OracleWithFallback(c.W.Evo.Config().Fallback)
}

// OracleWithFallback returns the step's shared from-scratch rebuild with
// the graceful-degradation layer on or off, whatever the live world runs:
// the availability invariant sends through a fallback-enabled referee and
// compares its degraded deliveries with the fail-fast twin. It is Oracle
// when on matches the live configuration.
func (c *CheckContext) OracleWithFallback(on bool) (*core.Evolution, error) {
	o, ok := c.oracles[on]
	if !ok {
		o.evo, o.err = c.W.buildOracle(on)
		if c.oracles == nil {
			c.oracles = map[bool]builtOracle{}
		}
		c.oracles[on] = o
	}
	return o.evo, o.err
}

// Failure describes one invariant violation: a human-readable detail
// line plus, when the invariant can produce one, a per-delivery path
// trace of the offending behavior.
type Failure struct {
	Detail string
	Trace  string
}

// Invariant is a property checked after every schedule event. Checkers
// may carry cross-step state (see conservation's previous snapshot), so
// a fresh set is created per run via Invariants.
type Invariant struct {
	name  string
	check checkFunc
}

// checkFunc checks one step, returning nil when the property holds.
type checkFunc func(c *CheckContext) *Failure

// Name returns the invariant's registry name.
func (inv Invariant) Name() string { return inv.name }

// Check evaluates the invariant against the step's state.
func (inv Invariant) Check(c *CheckContext) *Failure { return inv.check(c) }

// invariantTable declares every invariant once, in check order: its
// name, its one-line doc (cmd/chaos -list-invariants renders these) and
// a constructor for a fresh checker.
var invariantTable = []struct {
	name, doc string
	new       func() checkFunc
}{
	{"ua", "live Send agrees with the from-scratch oracle on every sampled host pair (§3.1 universal access)",
		func() checkFunc { return checkUA }},
	{"bone", "incrementally maintained vN-Bone equals the from-scratch construction (§3.3)",
		func() checkFunc { return checkBone }},
	{"conserve", "trace counters conserve (sends == deliveries + drops) and stay monotonic",
		func() checkFunc { return new(conserveInvariant).Check }},
	{"oracle", "the live epoch answers as the from-scratch oracle: readiness, every host's address, Route from every bone member to every host, provider choices and members, and anycast resolution from every router toward every anycast address",
		func() checkFunc { return checkOracle }},
	{"batchsend", "every two-packet AppendSendBurst agrees packet-for-packet with two singleton Sends",
		func() checkFunc { return checkBatchSend }},
	{"availability", "a fallback-enabled world never loses a baseline-intact packet and never degrades a delivery the ablation arm completes",
		func() checkFunc { return checkAvailability }},
}

// InvariantNames lists the registered invariant names in check order.
func InvariantNames() []string {
	out := make([]string, len(invariantTable))
	for i, inv := range invariantTable {
		out[i] = inv.name
	}
	return out
}

// InvariantDoc returns the one-line description of a registered
// invariant, "" for an unknown name.
func InvariantDoc(name string) string {
	for _, inv := range invariantTable {
		if inv.name == name {
			return inv.doc
		}
	}
	return ""
}

// Invariants instantiates fresh invariant checkers for the given names
// (nil or empty means all of them), in registry order.
func Invariants(names []string) ([]Invariant, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[strings.TrimSpace(n)] = true
	}
	var out []Invariant
	for _, inv := range invariantTable {
		if len(names) == 0 || want[inv.name] {
			out = append(out, Invariant{inv.name, inv.new()})
			delete(want, inv.name)
		}
	}
	for n := range want {
		return nil, fmt.Errorf("chaos: unknown invariant %q (have %s)", n, strings.Join(InvariantNames(), ", "))
	}
	return out, nil
}

// checkUA is the paper's Universal Access requirement (§3.1) made
// operational: for every host pair sampled, a Send on the long-lived
// Evolution must succeed exactly when it succeeds on the from-scratch
// oracle, and when both succeed they must agree on the anycast ingress,
// the egress and the end-to-end cost. A client that the oracle can serve
// but the live system cannot — or that the live system routes
// differently — has lost universal access to stale incremental state.
func checkUA(c *CheckContext) *Failure {
	oracle, err := c.Oracle()
	if err != nil {
		return &Failure{Detail: err.Error()}
	}
	hosts := c.W.Net.Hosts
	n := len(hosts)
	if n < 2 {
		return nil
	}
	payload := []byte("chaos-ua")
	for i := 0; i < n; i++ {
		src, dst := hosts[i], hosts[(i+1)%n]
		liveD, liveErr := c.W.Evo.Send(src, dst, payload)
		oraD, oraErr := oracle.Send(src, dst, payload)
		var detail string
		switch {
		case liveErr != nil && oraErr == nil:
			detail = fmt.Sprintf("live send failed (%v) but from-scratch oracle delivers via r%d at cost %d",
				liveErr, oraD.Ingress.Member, oraD.TotalCost)
		case liveErr == nil && oraErr != nil:
			detail = fmt.Sprintf("live send delivered via r%d at cost %d but oracle fails (%v)",
				liveD.Ingress.Member, liveD.TotalCost, oraErr)
		case liveErr == nil && (liveD.Ingress.Member != oraD.Ingress.Member || liveD.Egress.Member != oraD.Egress.Member || liveD.TotalCost != oraD.TotalCost):
			detail = fmt.Sprintf("live ingress r%d egress r%d cost %d, oracle ingress r%d egress r%d cost %d",
				liveD.Ingress.Member, liveD.Egress.Member, liveD.TotalCost, oraD.Ingress.Member, oraD.Egress.Member, oraD.TotalCost)
		}
		if detail != "" {
			return &Failure{Detail: fmt.Sprintf("h%d→h%d: %s", src.ID, dst.ID, detail), Trace: uaTrace(c.W.Evo, src, dst, payload)}
		}
	}
	return nil
}

// uaTrace replays the offending delivery with a recorder attached and
// renders the span dump — the "what did the packet actually do" artifact
// attached to a UA violation.
func uaTrace(evo *core.Evolution, src, dst *topology.Host, payload []byte) string {
	rec := trace.NewRecorder()
	_, _ = evo.SendTraced(src, dst, payload, rec)
	return evo.FormatTrace(rec.Events())
}

// checkBone checks the §3.3 vN-Bone: the live bone must be buildable
// exactly when the oracle's is, and when both exist they must be the
// same overlay — same member set, same links at the same costs and
// kinds, and connected. An incremental rebuild that drifts from the
// from-scratch construction means some topology change never reached
// the bone layer.
func checkBone(c *CheckContext) *Failure {
	oracle, err := c.Oracle()
	if err != nil {
		return &Failure{Detail: err.Error()}
	}
	liveBone, liveErr := c.W.Evo.Bone()
	oraBone, oraErr := oracle.Bone()
	if (liveErr != nil) != (oraErr != nil) {
		return &Failure{Detail: fmt.Sprintf("live bone err=%v, oracle bone err=%v", liveErr, oraErr)}
	}
	if liveErr != nil {
		return nil
	}
	if got, want := fmtMembers(liveBone), fmtMembers(oraBone); got != want {
		return &Failure{Detail: fmt.Sprintf("bone members diverge: live %s, oracle %s", got, want)}
	}
	if got, want := fmtLinks(liveBone.Links()), fmtLinks(oraBone.Links()); got != want {
		return &Failure{Detail: fmt.Sprintf("bone links diverge:\nlive:   %s\noracle: %s", got, want)}
	}
	if !liveBone.Connected() {
		return &Failure{Detail: fmt.Sprintf("bone built but not connected: %d components", len(liveBone.Components()))}
	}
	return nil
}

func fmtMembers(b *vnbone.Bone) string {
	ms := b.Members()
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprintf("r%d", m)
	}
	return "{" + strings.Join(parts, " ") + "}"
}

func fmtLinks(links []vnbone.Link) string {
	parts := make([]string, len(links))
	for i, l := range links {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		parts[i] = fmt.Sprintf("r%d-r%d/%d/%v", a, b, l.Cost, l.Kind)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}

// conserveInvariant checks trace-counter conservation: every delivery
// attempt is accounted exactly once (sends == deliveries + drops, since
// the send path is synchronous) and all counters are monotonic step over
// step — Snapshot.Sub panics on regression, which the check surfaces as
// a violation rather than a crash.
type conserveInvariant struct{ prev *trace.Snapshot }

func (ci *conserveInvariant) Check(c *CheckContext) (f *Failure) {
	s := c.W.Evo.Snapshot()
	if s.Sends != s.Deliveries+s.Drops {
		return &Failure{Detail: fmt.Sprintf("counter conservation broken: sends=%d deliveries=%d drops=%d", s.Sends, s.Deliveries, s.Drops)}
	}
	if ci.prev != nil {
		defer func() {
			if r := recover(); r != nil {
				f = &Failure{Detail: fmt.Sprintf("counter regression: %v", r)}
			}
		}()
		_ = s.Sub(*ci.prev)
	}
	ci.prev = &s
	return nil
}

// checkOracle is the pure routing-state comparison: after every event the
// live world's current epoch must answer everything an epoch answers as a
// from-scratch oracle of the same present state does. Both are usable or
// neither is; every router resolves the shared anycast address and every
// provider's address to the same Resolution — member, AS path and cost:
// the redirect decision of §3.1, read through the redirect cache Send
// uses, carried entries included; provider choices and members agree;
// and, on a usable epoch, every host has the same IPvN address and Route
// gives the same member, bone cost, rule and error from every bone member
// to every host. It catches stale IGP/BGP state, stale carried redirects
// and stale registrant origins even for hosts that never send. A
// multicast tree is a function of the bone and of anycast resolution,
// which this and bone already compare.
func checkOracle(c *CheckContext) *Failure {
	live := c.W.Evo
	oracle, err := c.Oracle()
	if err != nil {
		return &Failure{Detail: err.Error()}
	}
	liveReady, oraReady := live.Ready(), oracle.Ready()
	if (liveReady != nil) != (oraReady != nil) {
		return &Failure{Detail: fmt.Sprintf("live epoch err=%v, oracle epoch err=%v", liveReady, oraReady)}
	}
	if lp, op := live.ProviderChoices(), oracle.ProviderChoices(); !slices.Equal(lp, op) {
		return &Failure{Detail: fmt.Sprintf("provider choices: live %v, oracle %v", lp, op)}
	}
	addrs := []addr.V4{live.AnycastAddr()}
	for _, p := range c.W.providers {
		if lm, om := live.ProviderMembers(p.asn), oracle.ProviderMembers(p.asn); !slices.Equal(lm, om) {
			return &Failure{Detail: fmt.Sprintf("AS%d provider members: live %v, oracle %v", p.asn, lm, om)}
		}
		addrs = append(addrs, p.addr)
	}
	for _, a := range addrs {
		for _, r := range c.W.Net.Routers {
			liveRes, liveErr := live.ResolveAnycast(r.ID, a)
			oraRes, oraErr := oracle.ResolveAnycast(r.ID, a)
			if (liveErr != nil) != (oraErr != nil) || !reflect.DeepEqual(liveRes, oraRes) {
				return &Failure{Detail: fmt.Sprintf("ResolveAnycast(r%d, %s): live r%d/%d %v err=%v, oracle r%d/%d %v err=%v",
					r.ID, a, liveRes.Member, liveRes.Cost, liveRes.ASPath, liveErr, oraRes.Member, oraRes.Cost, oraRes.ASPath, oraErr)}
			}
		}
	}
	if liveReady != nil {
		return nil
	}
	for _, h := range c.W.Net.Hosts {
		la, _ := live.HostVNAddr(h)
		if oa, _ := oracle.HostVNAddr(h); la != oa {
			return &Failure{Detail: fmt.Sprintf("h%d address: live %s, oracle %s", h.ID, la, oa)}
		}
	}
	bone, _ := live.Bone() // a ready epoch has one
	for _, m := range bone.Members() {
		for _, h := range c.W.Net.Hosts {
			le, lrule, lerr := live.Route(m, h)
			oe, orule, oerr := oracle.Route(m, h)
			if lrule != orule || le.Member != oe.Member || le.BoneCost != oe.BoneCost || errText(lerr) != errText(oerr) {
				return &Failure{Detail: fmt.Sprintf("Route(r%d, h%d registered=%v): live r%d/%d %q err=%v, oracle r%d/%d %q err=%v",
					m, h.ID, c.W.Registered(h.ID), le.Member, le.BoneCost, lrule, lerr, oe.Member, oe.BoneCost, orule, oerr)}
			}
		}
	}
	return nil
}

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkBatchSend checks the burst≡loop delivery contract under the full
// fault schedule: after every event, each two-packet AppendSendBurst on
// the live Evolution must agree packet-for-packet with two singleton
// Sends — same per-packet success/failure (same error text on failure),
// same delivery modulo the random trace tag. Both drive one engine, so
// what can differ is what bursting adds: the pinned epoch and the reuse
// of the burst's flow by its second packet. Each source bursts to every
// destination of its window, the first one twice, so a burst torn across
// routing state or a flow reused across the wrong destination surfaces
// here against whatever topology the schedule has mangled.
func checkBatchSend(c *CheckContext) *Failure {
	hosts := c.W.Net.Hosts
	n := len(hosts)
	if n < 2 {
		return nil
	}
	payload := []byte("chaos-batch")
	payloads := [][]byte{payload, payload}
	// Up to four sources around the host ring, each bursting to a window
	// of successors with the first destination repeated at the end.
	stride := n / 4
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < n; i += stride {
		src := hosts[i]
		var dsts []*topology.Host
		for j := 1; j <= 5 && j < n; j++ {
			dsts = append(dsts, hosts[(i+j)%n])
		}
		dsts = append(dsts, dsts[0])

		for _, dst := range dsts {
			var loopDel [2]core.Delivery
			var loopErr [2]error
			for k := range loopDel {
				loopDel[k], loopErr[k] = c.W.Evo.Send(src, dst, payload)
			}
			burstDel, burstErr := c.W.Evo.AppendSendBurst(nil, src, dst, payloads)
			var be *core.BatchError
			if burstErr != nil && !errors.As(burstErr, &be) {
				// A whole-burst error must mean the loop failed identically
				// on every packet (the epoch error path).
				for k, err := range loopErr {
					if err == nil || err.Error() != burstErr.Error() {
						return &Failure{Detail: fmt.Sprintf("h%d→h%d burst failed whole (%v) but loop send %d got %v",
							src.ID, dst.ID, burstErr, k, err)}
					}
				}
				continue
			}
			for k := range loopDel {
				var kerr error
				if be != nil {
					kerr = be.Errs[k]
				}
				if errText(loopErr[k]) != errText(kerr) {
					return &Failure{
						Detail: fmt.Sprintf("h%d→h%d: loop send err=%v, burst packet %d err=%v",
							src.ID, dst.ID, loopErr[k], k, kerr),
						Trace: uaTrace(c.W.Evo, src, dst, payload),
					}
				}
				if kerr != nil {
					continue
				}
				ld, bd := loopDel[k], burstDel[k]
				ld.TraceTag, bd.TraceTag = 0, 0
				if !reflect.DeepEqual(ld, bd) {
					return &Failure{
						Detail: fmt.Sprintf("h%d→h%d: burst packet %d diverges from loop send:\nloop:  %+v\nburst: %+v",
							src.ID, dst.ID, k, ld, bd),
						Trace: uaTrace(c.W.Evo, src, dst, payload),
					}
				}
			}
		}
	}
	return nil
}

// checkAvailability is the graceful-degradation SLO made operational:
// against the current (mutated) topology, a fallback-enabled Evolution
// must deliver to every sampled host pair whose IPv(N-1) baseline is
// intact — degraded, maybe, but never dark — and must never degrade a
// delivery that an ablation-configured twin of the same state completes
// over the vN path. The checks run against a fresh fallback-enabled
// oracle (so per-flow health history cannot mask a systematic hole), and,
// when the live world itself has fallback enabled, against the live
// Evolution too.
func checkAvailability(c *CheckContext) *Failure {
	fb, err := c.OracleWithFallback(true)
	if err != nil {
		return &Failure{Detail: err.Error()}
	}
	hosts := c.W.Net.Hosts
	n := len(hosts)
	if n < 2 {
		return nil
	}
	payload := []byte("chaos-avail")
	liveFallback := c.W.Evo.Config().Fallback
	for i := 0; i < n; i++ {
		src, dst := hosts[i], hosts[(i+1)%n]
		_, baseErr := c.W.Evo.Fwd.HostToHost(src, dst)
		baselineIntact := baseErr == nil
		d, sendErr := fb.Send(src, dst, payload)
		if baselineIntact && sendErr != nil {
			return &Failure{
				Detail: fmt.Sprintf("h%d→h%d: baseline intact but fallback-enabled send black-holed (%v)",
					src.ID, dst.ID, sendErr),
				Trace: uaTrace(fb, src, dst, payload),
			}
		}
		if sendErr == nil && d.Fallback {
			// A fresh oracle's first send per flow starts healthy, so a
			// degraded delivery means the vN attempt failed — the ablation
			// twin of the same state must fail too.
			abl, err := c.OracleWithFallback(false)
			if err != nil {
				return &Failure{Detail: err.Error()}
			}
			if _, ablErr := abl.Send(src, dst, payload); ablErr == nil {
				return &Failure{
					Detail: fmt.Sprintf("h%d→h%d: fallback-enabled send degraded to the baseline though the ablation twin delivers over vN",
						src.ID, dst.ID),
					Trace: uaTrace(fb, src, dst, payload),
				}
			}
		}
		if liveFallback && baselineIntact {
			if _, liveErr := c.W.Evo.Send(src, dst, payload); liveErr != nil {
				return &Failure{
					Detail: fmt.Sprintf("h%d→h%d: baseline intact but the live fallback-enabled evolution black-holed (%v)",
						src.ID, dst.ID, liveErr),
					Trace: uaTrace(c.W.Evo, src, dst, payload),
				}
			}
		}
	}
	return nil
}
