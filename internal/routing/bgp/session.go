package bgp

import (
	"fmt"
	"sort"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/netsim"
	"github.com/evolvable-net/evolve/internal/topology"
)

// This file provides the event-driven counterpart of the synchronous
// fixpoint solver: per-AS speakers exchanging UPDATE messages over a
// netsim fabric, with the same decision process and Gao-Rexford export
// policy. For policy-safe configurations both converge to the same unique
// stable routing, which the property tests assert; the session model
// additionally measures the transient picture the paper hand-waves —
// propagation delay, black-hole windows, path exploration — at the
// inter-domain level.
//
// Unlike the original fire-and-forget prototype, every neighbor pair now
// runs a real session (see fsm.go): a failed or flapped fabric link takes
// the session down after the hold timer, flushing that neighbor's ribIn
// entries and withdrawing downstream; re-establishment replays the full
// Adj-RIB-Out; and sequence-number gaps on a link whose outage was too
// short to trip the hold timer trigger a route-refresh resync. Either
// way, an UPDATE or WITHDRAW dropped during an outage can no longer
// leave a permanently stale route.

// update is one BGP UPDATE: an advertisement (path != nil) or a
// withdrawal for a prefix.
type update struct {
	prefix addr.Prefix
	// path is the AS path as seen at the receiver (sender prepended),
	// nil for withdrawals.
	path     []topology.ASN
	noExport bool
}

// Speaker is one AS's event-driven BGP process.
type Speaker struct {
	asn    topology.ASN
	fabric *netsim.Fabric
	cfg    SessionConfig
	// neighbors maps neighbour ASN → our relationship toward it.
	neighbors map[topology.ASN]topology.Rel
	// nbrOrder is the sorted neighbor list, computed once.
	nbrOrder []topology.ASN
	// sessions holds the per-neighbor FSM and Adj-RIB-Out state.
	sessions map[topology.ASN]*session

	// ribIn holds the latest route heard from each neighbour per prefix.
	ribIn map[addr.Prefix]map[topology.ASN]Route
	// loc is the selected best route per prefix.
	loc map[addr.Prefix]Route
	// originated are locally injected prefixes (exportTo scoping as in
	// the fixpoint solver).
	originated []origination

	// Updates counts UPDATE messages sent — advertisements plus
	// withdrawals, excluding keepalives and refresh control messages —
	// for the dynamics experiments.
	Updates uint64
	// Withdrawals counts the withdrawal subset of Updates.
	Withdrawals uint64
	// Keepalives counts keepalive messages sent.
	Keepalives uint64
	// Resyncs counts route-refresh resyncs this speaker initiated after
	// detecting a sequence gap.
	Resyncs uint64
	// Establishes and Downs count session state transitions.
	Establishes uint64
	Downs       uint64

	// OnLocChange, when set, observes every loc-RIB change — the hook
	// experiment E18 uses to timestamp route arrival and black-hole
	// windows. have is false when the prefix was deleted (r is the old
	// route in that case).
	OnLocChange func(p addr.Prefix, r Route, have bool)

	// onActivity is the SessionSystem's quiescence hook, called on every
	// semantic event (RIB change, update send/receive, state change).
	onActivity func()
}

// NewSpeaker creates the speaker for asn and attaches it to the fabric
// (node id = int(asn)). With cfg.Keepalive > 0 the speaker schedules its
// keepalive/hold tick immediately; with zero it runs in legacy
// fire-and-forget mode (all sessions permanently established, no loss
// detection).
func NewSpeaker(asn topology.ASN, fabric *netsim.Fabric, neighbors map[topology.ASN]topology.Rel, cfg SessionConfig) *Speaker {
	cfg = cfg.withDefaults()
	s := &Speaker{
		asn:       asn,
		fabric:    fabric,
		cfg:       cfg,
		neighbors: neighbors,
		sessions:  map[topology.ASN]*session{},
		ribIn:     map[addr.Prefix]map[topology.ASN]Route{},
		loc:       map[addr.Prefix]Route{},
	}
	for n := range neighbors {
		s.nbrOrder = append(s.nbrOrder, n)
		s.sessions[n] = newSession(cfg.Keepalive <= 0)
	}
	sort.Slice(s.nbrOrder, func(i, j int) bool { return s.nbrOrder[i] < s.nbrOrder[j] })
	fabric.Attach(int(asn), s)
	if cfg.Keepalive > 0 {
		fabric.Engine().At(0, s.tick)
	}
	return s
}

func (s *Speaker) touch() {
	if s.onActivity != nil {
		s.onActivity()
	}
}

// SessionState returns the session FSM state toward the neighbor.
func (s *Speaker) SessionState(nb topology.ASN) SessState {
	sess, ok := s.sessions[nb]
	if !ok {
		return SessIdle
	}
	return sess.state
}

// tick is the recurring keepalive/hold timer: it expires dead sessions
// and probes every neighbor, then reschedules itself. No engine-side
// cancellation is needed — the closure re-checks all state when it fires.
func (s *Speaker) tick() {
	now := s.fabric.Engine().Now()
	for _, nb := range s.nbrOrder {
		sess := s.sessions[nb]
		if sess.state == SessEstablished && sess.heard && now-sess.lastHeard > s.cfg.Hold {
			s.sessionDown(nb, sess)
		}
		s.send(nb, sess, sessMsg{kind: msgKeepalive})
		s.Keepalives++
	}
	s.fabric.Engine().After(s.cfg.Keepalive, s.tick)
}

// sessionDown expires the session: flush every route learned from the
// peer (triggering reselect and downstream withdrawals), clear the
// Adj-RIB-Out (the peer symmetrically flushes what it heard from us),
// and drop any pending batch.
func (s *Speaker) sessionDown(nb topology.ASN, sess *session) {
	sess.state = SessDown
	sess.adjOut = map[addr.Prefix]advert{}
	sess.dirty = map[addr.Prefix]bool{}
	sess.stale = nil
	s.Downs++
	s.touch()
	var affected []addr.Prefix
	for p, in := range s.ribIn {
		if _, ok := in[nb]; ok {
			affected = append(affected, p)
		}
	}
	sortPrefixes(affected)
	for _, p := range affected {
		delete(s.ribIn[p], nb)
		s.reselect(p)
	}
}

// establish transitions Idle/Down → Established: resynchronize the
// receive sequence and replay our full Adj-RIB-Out to the peer. Coming
// back from Down we additionally ask the peer for its table — it may
// never have noticed the outage (asymmetric detection), in which case it
// won't replay on its own; from Idle the peer is cold too and replays at
// its own establishment, so the request would only duplicate traffic.
func (s *Speaker) establish(nb topology.ASN, sess *session, askRefresh bool) {
	sess.state = SessEstablished
	s.Establishes++
	s.touch()
	if askRefresh {
		s.send(nb, sess, sessMsg{kind: msgRefreshReq})
	}
	s.replay(nb, sess)
}

// beginResync reacts to a sequence gap (messages from the peer were lost
// without the session dropping): mark everything learned from the peer
// stale and request a full replay. Adverts un-stale entries as they
// arrive; whatever is still stale at EOR was a lost withdrawal.
//
// Link outages drop both directions, so we also replay our own table
// unsolicited. This is what makes the resync protocol self-healing when
// control messages are themselves lost: a dropped refreshReq consumed a
// sequence number, so the peer detects *that* gap on our next message
// and replays back — after the last drop on a link, every direction that
// lost anything is guaranteed an eventual replay + EOR.
func (s *Speaker) beginResync(nb topology.ASN, sess *session) {
	s.Resyncs++
	s.touch()
	sess.stale = map[addr.Prefix]bool{}
	for p, in := range s.ribIn {
		if _, ok := in[nb]; ok {
			sess.stale[p] = true
		}
	}
	s.send(nb, sess, sessMsg{kind: msgRefreshReq})
	s.replay(nb, sess)
}

// finishResync handles the peer's end-of-RIB marker: entries the replay
// did not refresh are deleted — this is where a WITHDRAW lost on a
// flapped link is finally recovered.
func (s *Speaker) finishResync(nb topology.ASN, sess *session) {
	if len(sess.stale) == 0 {
		sess.stale = nil
		return
	}
	var gone []addr.Prefix
	for p := range sess.stale {
		gone = append(gone, p)
	}
	sortPrefixes(gone)
	sess.stale = nil
	s.touch()
	for _, p := range gone {
		if in := s.ribIn[p]; in != nil {
			delete(in, nb)
		}
		s.reselect(p)
	}
}

// replay sends the speaker's full current Adj-RIB-Out for the neighbor —
// the export decision for every prefix it holds or originates — followed
// by an end-of-RIB marker. Used on (re-)establishment and on refresh
// requests; paired with peer-side flushing or stale-marking it restores
// exact synchrony regardless of what was lost.
func (s *Speaker) replay(nb topology.ASN, sess *session) {
	seen := map[addr.Prefix]bool{}
	var prefixes []addr.Prefix
	for p := range s.loc {
		if !seen[p] {
			seen[p] = true
			prefixes = append(prefixes, p)
		}
	}
	for _, o := range s.originated {
		if !seen[o.prefix] {
			seen[o.prefix] = true
			prefixes = append(prefixes, o.prefix)
		}
	}
	sortPrefixes(prefixes)
	prior := sess.adjOut
	sess.adjOut = map[addr.Prefix]advert{}
	sess.dirty = map[addr.Prefix]bool{}
	for _, p := range prefixes {
		if ad, ok := s.exportRoute(nb, p); ok {
			s.sendAdvert(nb, sess, p, ad)
		}
	}
	// The snapshot must be self-contained: anything previously advertised
	// that it omits gets an explicit withdrawal. Otherwise a withdraw
	// still batched in the dirty set (wiped above) would be lost, and the
	// peer — whose in-flight copy of the stale advert un-staled the
	// prefix before our EOR — would keep it forever.
	var gone []addr.Prefix
	for p := range prior {
		if _, still := sess.adjOut[p]; !still {
			gone = append(gone, p)
		}
	}
	sortPrefixes(gone)
	for _, p := range gone {
		s.sendWithdraw(nb, sess, p)
	}
	s.send(nb, sess, sessMsg{kind: msgEOR})
}

// Originate injects a locally originated prefix and announces it through
// the ordinary decision process.
func (s *Speaker) Originate(p addr.Prefix) {
	s.originated = append(s.originated, origination{prefix: p})
	s.reselect(p)
	s.announce(p)
}

// OriginateTo injects a prefix advertised only to the listed neighbours
// with NO_EXPORT. Like Originate it routes through reselect, so an
// origination correctly displaces a previously neighbor-learned loc
// entry (prefSelf wins the decision process) instead of leaving loc and
// announcements divergent.
func (s *Speaker) OriginateTo(p addr.Prefix, neighbors ...topology.ASN) {
	scope := map[topology.ASN]bool{}
	for _, n := range neighbors {
		scope[n] = true
	}
	s.originated = append(s.originated, origination{prefix: p, exportTo: scope})
	s.reselect(p)
	// Even when loc is unchanged the scoped export decision may have
	// changed; announce diffs against the Adj-RIB-Out so this is exact.
	s.announce(p)
}

// Withdraw removes all local originations of p and propagates the
// consequences through reselect.
func (s *Speaker) Withdraw(p addr.Prefix) {
	out := s.originated[:0]
	removed := false
	for _, o := range s.originated {
		if o.prefix == p {
			removed = true
			continue
		}
		out = append(out, o)
	}
	s.originated = out
	if !removed {
		return
	}
	s.reselect(p)
	s.announce(p)
}

// Best returns the speaker's selected route for p.
func (s *Speaker) Best(p addr.Prefix) (Route, bool) {
	r, ok := s.loc[p]
	return r, ok
}

// Routes returns every selected route in the loc-RIB in deterministic
// prefix order — the surface the chaos probes sweep mid-convergence.
func (s *Speaker) Routes() []Route {
	prefixes := make([]addr.Prefix, 0, len(s.loc))
	for p := range s.loc {
		prefixes = append(prefixes, p)
	}
	sortPrefixes(prefixes)
	out := make([]Route, 0, len(prefixes))
	for _, p := range prefixes {
		out = append(out, s.loc[p])
	}
	return out
}

// TableSize returns the loc-RIB size.
func (s *Speaker) TableSize() int { return len(s.loc) }

// exportRoute is the per-neighbor export decision for p: the ordinary
// Gao-Rexford export of the best route when eligible, else a scoped
// NO_EXPORT advert when a selective origination names the neighbor.
// Ordinary-before-selective matches the fixpoint receiver's tie-break
// (it tries a neighbour's ordinary export before its selective ones).
func (s *Speaker) exportRoute(nb topology.ASN, p addr.Prefix) (advert, bool) {
	rel := s.neighbors[nb]
	if best, have := s.loc[p]; have && exportsTo(best, rel) && !loops(best.Path, nb) {
		return advert{
			path:     append([]topology.ASN{s.asn}, best.Path...),
			noExport: best.NoExport,
		}, true
	}
	for _, o := range s.originated {
		if o.prefix == p && o.exportTo != nil && o.exportTo[nb] {
			return advert{path: []topology.ASN{s.asn}, noExport: true}, true
		}
	}
	return advert{}, false
}

// announce marks p dirty toward every neighbor; the MRAI flush diffs the
// export decision against the Adj-RIB-Out, so neighbors that never heard
// an advert for p receive nothing (no gratuitous WITHDRAWs), and no-op
// re-announcements are suppressed.
func (s *Speaker) announce(p addr.Prefix) {
	for _, nb := range s.nbrOrder {
		s.markDirty(nb, p)
	}
}

// markDirty queues p for (re-)advertisement to nb under the MRAI regime:
// immediate flush on the leading edge, batching while the timer is armed.
// Non-established sessions are skipped — establishment replays the full
// Adj-RIB-Out anyway.
func (s *Speaker) markDirty(nb topology.ASN, p addr.Prefix) {
	sess := s.sessions[nb]
	if sess.state != SessEstablished {
		return
	}
	sess.dirty[p] = true
	if s.cfg.MRAI <= 0 {
		s.flush(nb, sess)
		return
	}
	if !sess.mraiArmed {
		s.flush(nb, sess)
		sess.mraiArmed = true
		s.fabric.Engine().After(s.cfg.MRAI, func() { s.mraiFire(nb) })
	}
}

// mraiFire is the trailing edge of the MRAI timer: flush whatever
// batched, and re-arm only if something was sent.
func (s *Speaker) mraiFire(nb topology.ASN) {
	sess := s.sessions[nb]
	if sess.state != SessEstablished || len(sess.dirty) == 0 {
		sess.mraiArmed = false
		return
	}
	s.flush(nb, sess)
	s.fabric.Engine().After(s.cfg.MRAI, func() { s.mraiFire(nb) })
}

// flush sends the delta between the current export decisions for the
// dirty prefixes and the Adj-RIB-Out: adverts for new/changed routes,
// withdrawals only for previously advertised prefixes.
func (s *Speaker) flush(nb topology.ASN, sess *session) {
	if len(sess.dirty) == 0 {
		return
	}
	prefixes := make([]addr.Prefix, 0, len(sess.dirty))
	for p := range sess.dirty {
		prefixes = append(prefixes, p)
	}
	sortPrefixes(prefixes)
	sess.dirty = map[addr.Prefix]bool{}
	for _, p := range prefixes {
		desired, want := s.exportRoute(nb, p)
		cur, had := sess.adjOut[p]
		switch {
		case want && (!had || !advertEqual(cur, desired)):
			s.sendAdvert(nb, sess, p, desired)
		case !want && had:
			s.sendWithdraw(nb, sess, p)
		}
	}
}

func (s *Speaker) sendAdvert(nb topology.ASN, sess *session, p addr.Prefix, ad advert) {
	s.Updates++
	sess.adjOut[p] = ad
	s.touch()
	s.send(nb, sess, sessMsg{kind: msgUpdate, upd: update{
		prefix:   p,
		path:     ad.path,
		noExport: ad.noExport,
	}})
}

func (s *Speaker) sendWithdraw(nb topology.ASN, sess *session, p addr.Prefix) {
	s.Updates++
	s.Withdrawals++
	delete(sess.adjOut, p)
	s.touch()
	s.send(nb, sess, sessMsg{kind: msgUpdate, upd: update{prefix: p}})
}

// sessTrace, when non-nil, observes every session message send (test
// instrumentation only).
var sessTrace func(t netsim.Time, from, to topology.ASN, m sessMsg)

// send stamps the per-session sequence number and hands the message to
// the fabric. The counter advances even when the fabric drops the
// message on a failed link — that consumed number is exactly what the
// receiver later sees as a gap.
func (s *Speaker) send(nb topology.ASN, sess *session, m sessMsg) {
	m.seq = sess.txSeq
	sess.txSeq++
	if sessTrace != nil {
		sessTrace(s.fabric.Engine().Now(), s.asn, nb, m)
	}
	s.fabric.Send(int(s.asn), int(nb), m)
}

// Receive implements netsim.Handler: the session layer (liveness,
// sequence-gap detection, refresh control) wraps the UPDATE processing.
func (s *Speaker) Receive(from int, msg any) {
	m, ok := msg.(sessMsg)
	if !ok {
		return
	}
	nbr := topology.ASN(from)
	rel, adjacent := s.neighbors[nbr]
	if !adjacent {
		return
	}
	sess := s.sessions[nbr]
	sess.lastHeard = s.fabric.Engine().Now()
	sess.heard = true
	if s.cfg.Keepalive > 0 {
		switch sess.state {
		case SessIdle, SessDown:
			wasDown := sess.state == SessDown
			sess.rxSeq = m.seq + 1
			s.establish(nbr, sess, wasDown)
		case SessEstablished:
			if m.seq != sess.rxSeq {
				s.beginResync(nbr, sess)
			}
			sess.rxSeq = m.seq + 1
		}
	}
	switch m.kind {
	case msgKeepalive:
		return
	case msgRefreshReq:
		s.replay(nbr, sess)
	case msgEOR:
		s.finishResync(nbr, sess)
	case msgUpdate:
		s.processUpdate(nbr, rel, sess, m.upd)
	}
}

func (s *Speaker) processUpdate(nbr topology.ASN, rel topology.Rel, sess *session, u update) {
	s.touch()
	if sess.stale != nil {
		delete(sess.stale, u.prefix)
	}
	in := s.ribIn[u.prefix]
	if in == nil {
		in = map[topology.ASN]Route{}
		s.ribIn[u.prefix] = in
	}
	if u.path == nil {
		delete(in, nbr)
	} else {
		in[nbr] = Route{
			Prefix:       u.prefix,
			Path:         u.path,
			LocalPref:    prefFor(rel),
			NoExport:     u.noExport,
			FromCustomer: rel == topology.RelProvider,
		}
	}
	s.reselect(u.prefix)
}

// reselect re-runs the decision process for p and re-announces on
// change. The speaker's own route is ownRoute's, the rule the prefix
// states apply too: its first origination of p.
func (s *Speaker) reselect(p addr.Prefix) {
	var best Route
	noExport, have := ownRoute(s.originated, p)
	if have {
		best = Route{Prefix: p, LocalPref: prefSelf, NoExport: noExport}
	}
	in := s.ribIn[p]
	for _, nb := range s.nbrOrder {
		cand, heard := in[nb]
		if !heard || loops(cand.Path, s.asn) {
			continue
		}
		if !have || better(cand, best) {
			best, have = cand, true
		}
	}
	cur, had := s.loc[p]
	switch {
	case !have && !had:
		return
	case have && had && routeEqual(cur, best):
		return
	case have:
		s.loc[p] = best
		s.touch()
		if s.OnLocChange != nil {
			s.OnLocChange(p, best, true)
		}
	default:
		delete(s.loc, p)
		s.touch()
		if s.OnLocChange != nil {
			s.OnLocChange(p, cur, false)
		}
	}
	s.announce(p)
}

// SessionSystem wires one Speaker per AS over a fabric whose node ids are
// the ASNs, with link latencies from the first physical link between each
// AS pair.
type SessionSystem struct {
	Speakers map[topology.ASN]*Speaker
	net      *topology.Network
	eng      *netsim.Engine
	cfg      SessionConfig
	// idle is the quiescence window: how long the protocol must stay
	// silent before RunToConvergence declares convergence. It exceeds
	// hold + keepalive + MRAI + the slowest link so that every latent
	// consequence of the last activity has had time to fire.
	idle         netsim.Time
	lastActivity netsim.Time
}

// NewSessionSystem builds the speakers and links with the default session
// timers; every domain originates its aggregate (announcements flow as
// sessions establish once the engine runs).
func NewSessionSystem(net *topology.Network, fabric *netsim.Fabric) *SessionSystem {
	return NewSessionSystemConfig(net, fabric, DefaultSessionConfig())
}

// NewSessionSystemConfig is NewSessionSystem with explicit session
// timers; SessionConfig{} (zero Keepalive) selects the legacy
// fire-and-forget mode.
func NewSessionSystemConfig(net *topology.Network, fabric *netsim.Fabric, cfg SessionConfig) *SessionSystem {
	cfg = cfg.withDefaults()
	ss := &SessionSystem{
		Speakers: map[topology.ASN]*Speaker{},
		net:      net,
		eng:      fabric.Engine(),
		cfg:      cfg,
	}
	var maxLat netsim.Time
	for _, asn := range net.ASNs() {
		nbrs := map[topology.ASN]topology.Rel{}
		for _, nb := range net.Neighbors(asn) {
			nbrs[nb.ASN] = nb.Rel
			lat := netsim.Time(nb.Links[0].Latency)
			if lat > maxLat {
				maxLat = lat
			}
			fabric.Connect(int(asn), int(nb.ASN), lat)
		}
		sp := NewSpeaker(asn, fabric, nbrs, cfg)
		sp.onActivity = ss.touchNow
		ss.Speakers[asn] = sp
	}
	ss.idle = cfg.Hold + cfg.Keepalive + cfg.MRAI + maxLat + 100
	for _, asn := range net.ASNs() {
		ss.Speakers[asn].Originate(net.Domain(asn).Prefix)
	}
	return ss
}

func (ss *SessionSystem) touchNow() { ss.lastActivity = ss.eng.Now() }

// Engine returns the discrete-event engine the system runs on.
func (ss *SessionSystem) Engine() *netsim.Engine { return ss.eng }

// Config returns the session timers in force.
func (ss *SessionSystem) Config() SessionConfig { return ss.cfg }

// RunToConvergence drives the engine until the protocol has been quiet —
// no UPDATE traffic, no RIB changes, no session transitions — for the
// idle window (keepalives do not count as activity), or until the
// simulated clock passes maxTime (0 means no bound). It returns the time
// of the last protocol activity (the quiescence instant) and whether
// quiescence was reached. With sessions disabled the engine simply
// drains.
func (ss *SessionSystem) RunToConvergence(maxTime netsim.Time) (netsim.Time, bool) {
	// Re-baseline the idle clock: on a repeat call the previous
	// quiescence would otherwise still satisfy the idle window and
	// return before newly scheduled events (failures, withdrawals) run.
	if ss.lastActivity < ss.eng.Now() {
		ss.lastActivity = ss.eng.Now()
	}
	for {
		if ss.eng.Pending() == 0 {
			return ss.lastActivity, true
		}
		if maxTime > 0 && ss.eng.Now() >= maxTime {
			return ss.lastActivity, false
		}
		ss.eng.Step()
		if ss.eng.Now()-ss.lastActivity >= ss.idle {
			return ss.lastActivity, true
		}
	}
}

// SessionState returns owner's session FSM state toward nb.
func (ss *SessionSystem) SessionState(owner, nb topology.ASN) SessState {
	sp, ok := ss.Speakers[owner]
	if !ok {
		return SessIdle
	}
	return sp.SessionState(nb)
}

// SessionTotals is every speaker's message and transition tally summed:
// the fields mirror Speaker's counters of the same names.
type SessionTotals struct {
	Updates, Withdrawals, Keepalives, Resyncs, Establishes, Downs uint64
}

// Totals sums the speakers' counters.
func (ss *SessionSystem) Totals() SessionTotals {
	var t SessionTotals
	for _, s := range ss.Speakers {
		t.Updates += s.Updates
		t.Withdrawals += s.Withdrawals
		t.Keepalives += s.Keepalives
		t.Resyncs += s.Resyncs
		t.Establishes += s.Establishes
		t.Downs += s.Downs
	}
	return t
}

// Diverges holds every speaker's loc-RIB to the fixpoint fix, on every
// domain's aggregate and then each of extra. It reports the first
// mismatch in holder (ASN), then prefix, order; diverged is false when
// every entry agrees with the fixpoint in presence and in every
// attribute.
func (ss *SessionSystem) Diverges(fix *System, extra ...addr.Prefix) (detail string, diverged bool) {
	asns := ss.net.ASNs()
	prefixes := make([]addr.Prefix, 0, len(asns)+len(extra))
	for _, origin := range asns {
		prefixes = append(prefixes, ss.net.Domain(origin).Prefix)
	}
	prefixes = append(prefixes, extra...)
	for _, holder := range asns {
		for _, p := range prefixes {
			fr, fok := fix.BestRoute(holder, p)
			sr, sok := ss.Speakers[holder].Best(p)
			if fok != sok || (fok && !routeEqual(fr, sr)) {
				return fmt.Sprintf("AS%d→%s: fixpoint %+v(%v) vs session %+v(%v)", holder, p, fr, fok, sr, sok), true
			}
		}
	}
	return "", false
}

// RelOf returns a's relationship toward b; ok is false when the two are
// not adjacent.
func RelOf(net *topology.Network, a, b topology.ASN) (rel topology.Rel, ok bool) {
	for _, nb := range net.Neighbors(a) {
		if nb.ASN == b {
			return nb.Rel, true
		}
	}
	return 0, false
}

// ValleyFree reports whether an AS path is Gao-Rexford-valid: once it has
// crossed a peer link or gone provider→customer (downhill), it never goes
// customer→provider (uphill) or crosses another peer link. A hop between
// non-adjacent ASes makes the path invalid.
func ValleyFree(net *topology.Network, path []topology.ASN) bool {
	descending := false
	for i := 0; i+1 < len(path); i++ {
		rel, ok := RelOf(net, path[i], path[i+1])
		if !ok {
			return false
		}
		switch rel {
		case topology.RelCustomer: // uphill: path[i] pays path[i+1]
			if descending {
				return false
			}
		case topology.RelPeer:
			if descending {
				return false
			}
			descending = true
		case topology.RelProvider: // downhill
			descending = true
		}
	}
	return true
}
