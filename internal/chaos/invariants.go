package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"

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

// Invariant is a property checked after every schedule event. Instances
// may carry cross-step state (see conservation's previous snapshot), so
// a fresh set is created per run via Invariants.
type Invariant interface {
	Name() string
	Check(c *CheckContext) *Failure
}

// InvariantNames lists the registered invariant names in check order.
func InvariantNames() []string {
	return []string{"ua", "bone", "conserve", "oracle", "epochtick", "batchsend", "availability"}
}

// InvariantDoc returns the one-line description of a registered
// invariant (cmd/chaos -list-invariants renders these).
func InvariantDoc(name string) string {
	switch name {
	case "ua":
		return "live Send agrees with the from-scratch oracle on every sampled host pair (§3.1 universal access)"
	case "bone":
		return "incrementally maintained vN-Bone equals the from-scratch construction (§3.3)"
	case "conserve":
		return "trace counters conserve (sends == deliveries + drops) and stay monotonic"
	case "oracle":
		return "every host's anycast resolution matches the from-scratch oracle"
	case "epochtick":
		return "every routing-epoch store ticks WatchEpochs subscribers, and only those"
	case "batchsend":
		return "SendBatch agrees packet-for-packet with the equivalent singleton Send loop"
	case "availability":
		return "a fallback-enabled world never loses a baseline-intact packet and never degrades a delivery the ablation arm completes"
	default:
		return ""
	}
}

// Invariants instantiates fresh invariant checkers for the given names
// (nil or empty means all of them), in registry order.
func Invariants(names []string) ([]Invariant, error) {
	if len(names) == 0 {
		names = InvariantNames()
	}
	want := map[string]bool{}
	for _, n := range names {
		want[strings.TrimSpace(n)] = true
	}
	var out []Invariant
	for _, n := range InvariantNames() {
		if want[n] {
			out = append(out, newInvariant(n))
			delete(want, n)
		}
	}
	for n := range want {
		return nil, fmt.Errorf("chaos: unknown invariant %q (have %s)", n, strings.Join(InvariantNames(), ", "))
	}
	return out, nil
}

func newInvariant(name string) Invariant {
	switch name {
	case "ua":
		return &uaInvariant{}
	case "bone":
		return &boneInvariant{}
	case "conserve":
		return &conserveInvariant{}
	case "oracle":
		return &oracleInvariant{}
	case "epochtick":
		return &epochTickInvariant{}
	case "batchsend":
		return &batchSendInvariant{}
	case "availability":
		return &availabilityInvariant{}
	default:
		panic("chaos: unregistered invariant " + name)
	}
}

// uaInvariant is the paper's Universal Access requirement (§3.1) made
// operational: for every host pair sampled, a Send on the long-lived
// Evolution must succeed exactly when it succeeds on the from-scratch
// oracle, and when both succeed they must agree on the anycast ingress
// and the end-to-end cost. A client that the oracle can serve but the
// live system cannot — or that the live system routes differently — has
// lost universal access to stale incremental state.
type uaInvariant struct{}

func (uaInvariant) Name() string { return "ua" }

func (uaInvariant) Check(c *CheckContext) *Failure {
	oracle, err := c.Oracle()
	if err != nil {
		// The current topology state admits no deployment at all (e.g.
		// the bone cannot be built). The live system must agree that it
		// is unusable.
		if liveErr := c.W.Evo.Ready(); liveErr == nil {
			return &Failure{Detail: fmt.Sprintf("oracle cannot be built (%v) but live evolution reports Ready", err)}
		}
		return nil
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
		switch {
		case liveErr != nil && oraErr == nil:
			return &Failure{
				Detail: fmt.Sprintf("h%d→h%d: live send failed (%v) but from-scratch oracle delivers via r%d at cost %d",
					src.ID, dst.ID, liveErr, oraD.Ingress.Member, oraD.TotalCost),
				Trace: uaTrace(c.W.Evo, src, dst, payload),
			}
		case liveErr == nil && oraErr != nil:
			return &Failure{
				Detail: fmt.Sprintf("h%d→h%d: live send delivered via r%d at cost %d but oracle fails (%v)",
					src.ID, dst.ID, liveD.Ingress.Member, liveD.TotalCost, oraErr),
				Trace: uaTrace(c.W.Evo, src, dst, payload),
			}
		case liveErr == nil && oraErr == nil:
			if liveD.Ingress.Member != oraD.Ingress.Member || liveD.TotalCost != oraD.TotalCost {
				return &Failure{
					Detail: fmt.Sprintf("h%d→h%d: live ingress r%d cost %d, oracle ingress r%d cost %d",
						src.ID, dst.ID, liveD.Ingress.Member, liveD.TotalCost, oraD.Ingress.Member, oraD.TotalCost),
					Trace: uaTrace(c.W.Evo, src, dst, payload),
				}
			}
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

// boneInvariant checks the §3.3 vN-Bone: the live bone must be buildable
// exactly when the oracle's is, and when both exist they must be the
// same overlay — same member set, same links at the same costs and
// kinds, and connected. An incremental rebuild that drifts from the
// from-scratch construction means some topology change never reached
// the bone layer.
type boneInvariant struct{}

func (boneInvariant) Name() string { return "bone" }

func (boneInvariant) Check(c *CheckContext) *Failure {
	oracle, err := c.Oracle()
	if err != nil {
		return nil // ua already cross-checks total unusability
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
type conserveInvariant struct {
	prev    trace.Snapshot
	havePrv bool
}

func (*conserveInvariant) Name() string { return "conserve" }

func (ci *conserveInvariant) Check(c *CheckContext) (f *Failure) {
	s := c.W.Evo.Snapshot()
	if s.Sends != s.Deliveries+s.Drops {
		return &Failure{Detail: fmt.Sprintf("counter conservation broken: sends=%d deliveries=%d drops=%d", s.Sends, s.Deliveries, s.Drops)}
	}
	if ci.havePrv {
		defer func() {
			if r := recover(); r != nil {
				f = &Failure{Detail: fmt.Sprintf("counter regression: %v", r)}
			}
		}()
		_ = s.Sub(ci.prev)
	}
	ci.prev, ci.havePrv = s, true
	return nil
}

// oracleInvariant is the pure routing-state comparison: every host's
// anycast resolution (the redirect decision of §3.1) as the live world's
// current epoch answers it — through the redirect cache Send uses,
// carried entries included — must match the from-scratch oracle's: same
// reachability, same chosen member, same cost. It catches stale IGP/BGP
// state and stale carried redirects even for hosts that never send.
type oracleInvariant struct{}

func (oracleInvariant) Name() string { return "oracle" }

func (oracleInvariant) Check(c *CheckContext) *Failure {
	oracle, err := c.Oracle()
	if err != nil {
		return nil
	}
	liveAddr := c.W.Evo.AnycastAddr()
	oraAddr := oracle.AnycastAddr()
	for _, h := range c.W.Net.Hosts {
		liveRes, liveErr := c.W.Evo.ResolveAnycast(h.Attach, liveAddr)
		oraRes, oraErr := oracle.ResolveAnycast(h.Attach, oraAddr)
		if (liveErr != nil) != (oraErr != nil) {
			return &Failure{Detail: fmt.Sprintf("h%d anycast resolution: live err=%v, oracle err=%v", h.ID, liveErr, oraErr)}
		}
		if liveErr != nil {
			continue
		}
		if liveRes.Member != oraRes.Member || liveRes.Cost != oraRes.Cost {
			return &Failure{Detail: fmt.Sprintf("h%d anycast resolution diverges: live r%d/%d, oracle r%d/%d",
				h.ID, liveRes.Member, liveRes.Cost, oraRes.Member, oraRes.Cost)}
		}
	}
	return nil
}

// batchSendInvariant checks the batch≡loop delivery contract under the
// full fault schedule: after every event, a SendBatch burst on the live
// Evolution must agree packet-for-packet with the equivalent singleton
// Send loop — same per-packet success/failure (same error text on
// failure), same delivery modulo the random trace tag. Both drive one
// engine, so what can differ is what batching adds: the pinned epoch and
// the per-flow skeleton reuse. The bursts carry in-batch duplicate
// destinations, so a batch torn across routing state or a flow skeleton
// reused across the wrong destination surfaces here against whatever
// topology the schedule has mangled.
type batchSendInvariant struct{}

func (batchSendInvariant) Name() string { return "batchsend" }

func (batchSendInvariant) Check(c *CheckContext) *Failure {
	hosts := c.W.Net.Hosts
	n := len(hosts)
	if n < 2 {
		return nil
	}
	payload := []byte("chaos-batch")
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

		loopDel := make([]core.Delivery, len(dsts))
		loopErr := make([]error, len(dsts))
		for k, dst := range dsts {
			loopDel[k], loopErr[k] = c.W.Evo.Send(src, dst, payload)
		}
		batchDel, batchErr := c.W.Evo.SendBatch(src, dsts, nil)
		var be *core.BatchError
		if batchErr != nil && !errors.As(batchErr, &be) {
			// A whole-batch error must mean the loop failed identically on
			// every packet (the epoch error path).
			for k, err := range loopErr {
				if err == nil || err.Error() != batchErr.Error() {
					return &Failure{Detail: fmt.Sprintf("h%d batch failed whole (%v) but loop send %d got %v",
						src.ID, batchErr, k, err)}
				}
			}
			continue
		}
		for k := range dsts {
			var kerr error
			if be != nil {
				kerr = be.Errs[k]
			}
			switch {
			case loopErr[k] == nil && kerr != nil:
				return &Failure{
					Detail: fmt.Sprintf("h%d→h%d: loop send delivers but batch packet %d fails (%v)",
						src.ID, dsts[k].ID, k, kerr),
					Trace: uaTrace(c.W.Evo, src, dsts[k], payload),
				}
			case loopErr[k] != nil && kerr == nil:
				return &Failure{
					Detail: fmt.Sprintf("h%d→h%d: loop send fails (%v) but batch packet %d delivers",
						src.ID, dsts[k].ID, loopErr[k], k),
					Trace: uaTrace(c.W.Evo, src, dsts[k], payload),
				}
			case loopErr[k] != nil:
				if loopErr[k].Error() != kerr.Error() {
					return &Failure{Detail: fmt.Sprintf("h%d→h%d: drop reasons diverge: loop %q, batch %q",
						src.ID, dsts[k].ID, loopErr[k], kerr)}
				}
			default:
				ld, bd := loopDel[k], batchDel[k]
				ld.TraceTag, bd.TraceTag = 0, 0
				ld.Payload, bd.Payload = nil, nil
				if !reflect.DeepEqual(ld, bd) {
					return &Failure{
						Detail: fmt.Sprintf("h%d→h%d: batch packet %d diverges from loop send:\nloop:  %+v\nbatch: %+v",
							src.ID, dsts[k].ID, k, ld, bd),
						Trace: uaTrace(c.W.Evo, src, dsts[k], payload),
					}
				}
			}
		}
	}
	return nil
}

// epochTickInvariant checks the epoch-publication contract that
// epoch-driven consumers (livebridge's in-place reconciler) rely on:
// every routing-epoch store during an event must leave a pending tick on
// a WatchEpochs subscription, and no tick may appear without a store. A
// publish site that forgets to notify would leave live overlays running
// stale configurations forever; this catches it under the full fault
// schedule. Stateful: the subscription is created on the first check,
// so the first event only establishes the baseline.
type epochTickInvariant struct {
	ch         <-chan struct{}
	prevEpochs uint64
	subscribed bool
}

func (*epochTickInvariant) Name() string { return "epochtick" }

func (inv *epochTickInvariant) Check(c *CheckContext) *Failure {
	epochs := c.W.Evo.Snapshot().Epochs
	if !inv.subscribed {
		// The watcher lives as long as the Evolution under test; runs
		// discard both together.
		inv.ch, _ = c.W.Evo.WatchEpochs()
		inv.subscribed = true
		inv.prevEpochs = epochs
		return nil
	}
	published := epochs - inv.prevEpochs
	inv.prevEpochs = epochs
	ticks := 0
	for {
		select {
		case <-inv.ch:
			ticks++
			continue
		default:
		}
		break
	}
	if published > 0 && ticks == 0 {
		return &Failure{Detail: fmt.Sprintf(
			"%d epoch(s) published during %s but the watcher never ticked", published, c.Event)}
	}
	if published == 0 && ticks > 0 {
		return &Failure{Detail: fmt.Sprintf(
			"watcher ticked %d time(s) though %s published no epoch", ticks, c.Event)}
	}
	return nil
}

// availabilityInvariant is the graceful-degradation SLO made operational:
// against the current (mutated) topology, a fallback-enabled Evolution
// must deliver to every sampled host pair whose IPv(N-1) baseline is
// intact — degraded, maybe, but never dark — and must never degrade a
// delivery that an ablation-configured twin of the same state completes
// over the vN path. The checks run against a fresh fallback-enabled
// oracle (so per-flow health history cannot mask a systematic hole), and,
// when the live world itself has fallback enabled, against the live
// Evolution too.
type availabilityInvariant struct{}

func (availabilityInvariant) Name() string { return "availability" }

func (availabilityInvariant) Check(c *CheckContext) *Failure {
	fb, err := c.OracleWithFallback(true)
	if err != nil {
		// The current state admits no Evolution at all; ua already
		// cross-checks total unusability.
		return nil
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
			if abl, aerr := c.OracleWithFallback(false); aerr == nil {
				if _, ablErr := abl.Send(src, dst, payload); ablErr == nil {
					return &Failure{
						Detail: fmt.Sprintf("h%d→h%d: fallback-enabled send degraded to the baseline though the ablation twin delivers over vN",
							src.ID, dst.ID),
						Trace: uaTrace(fb, src, dst, payload),
					}
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
