package bgp

import (
	"sort"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/netsim"
	"github.com/evolvable-net/evolve/internal/topology"
)

// This file holds the per-neighbor session machinery of the event-driven
// Speaker: a small RFC-4271-shaped FSM (Idle → Established → Down) driven
// by keepalive and hold timers on the netsim engine, plus the
// loss-tolerance layer — per-session sequence numbers whose gaps trigger
// a route-refresh resync — that makes UPDATEs or WITHDRAWs dropped on a
// failed link recoverable instead of permanently lost.

// SessState is the state of one neighbor session.
type SessState uint8

const (
	// SessIdle is the initial state: nothing heard from the peer yet.
	// UPDATEs are withheld; establishment replays the full Adj-RIB-Out.
	SessIdle SessState = iota
	// SessEstablished: the peer is live. UPDATEs flow, and a gap in the
	// peer's message sequence numbers (messages lost on a flapped link
	// too briefly down to trip the hold timer) triggers a route-refresh
	// resync instead of being silently ignored.
	SessEstablished
	// SessDown: the hold timer expired without hearing from the peer.
	// Every ribIn entry learned from it is flushed (propagating
	// withdrawals downstream), its Adj-RIB-Out is cleared, and keepalives
	// keep probing so the session re-establishes when the link returns.
	SessDown
)

// String renders the state for logs and test failures.
func (s SessState) String() string {
	switch s {
	case SessIdle:
		return "idle"
	case SessEstablished:
		return "established"
	case SessDown:
		return "down"
	default:
		return "invalid"
	}
}

// SessionConfig sets the session timers. The zero value of Keepalive
// disables the session machinery entirely: a fire-and-forget speaker
// with no FSM and no loss detection. It stays as the reference tests
// compare against — the negative one of the session chaos self-test and
// TestLostWithdrawPermanentInLegacy (a lost WITHDRAW is a permanent
// black hole without sessions), and the timer-free speaker whose exact
// message counts the chainSystem(t, SessionConfig{}) tests pin.
type SessionConfig struct {
	// Keepalive is the keepalive/hold-check tick interval in simulated
	// microseconds. Zero disables sessions (the fire-and-forget
	// reference).
	Keepalive netsim.Time
	// Hold is how long silence from a peer is tolerated before the
	// session is declared down. Defaults to 3×Keepalive.
	Hold netsim.Time
	// MRAI is the per-neighbor min-route-advertisement interval: the
	// first change to a neighbor flushes immediately (leading edge),
	// then further changes batch until the timer fires. Zero sends every
	// change immediately.
	MRAI netsim.Time
}

// DefaultSessionConfig returns the stock timers: 2ms keepalives, 6ms
// hold, 1ms MRAI — an order of magnitude above the generators' 10–50µs
// inter-domain link latencies, mirroring real BGP's timer/RTT ratio.
func DefaultSessionConfig() SessionConfig {
	return SessionConfig{Keepalive: 2000, Hold: 6000, MRAI: 1000}
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Keepalive > 0 && c.Hold <= 0 {
		c.Hold = 3 * c.Keepalive
	}
	return c
}

// msgKind tags a session message.
type msgKind uint8

const (
	// msgKeepalive proves liveness and carries the sequence number that
	// lets the peer detect loss windows.
	msgKeepalive msgKind = iota
	// msgUpdate is a route advertisement or withdrawal.
	msgUpdate
	// msgRefreshReq asks the peer to replay its full Adj-RIB-Out (RFC
	// 2918-style route refresh), sent after a sequence gap.
	msgRefreshReq
	// msgEOR marks the end of a replay (RFC 4724's end-of-RIB): entries
	// still stale when it arrives were lost withdrawals — delete them.
	msgEOR
)

// sessMsg is the envelope every session message travels in. seq is a
// per-direction counter assigned at send time; because the fabric drops
// messages on failed links after consuming a number, the receiver sees a
// gap as soon as the first post-outage message arrives.
type sessMsg struct {
	kind msgKind
	seq  uint64
	upd  update
}

// advert is the wire content of an advertisement as last sent to a
// neighbor — the per-prefix value of the Adj-RIB-Out.
type advert struct {
	path     []topology.ASN
	noExport bool
}

func advertEqual(a, b advert) bool {
	if a.noExport != b.noExport || len(a.path) != len(b.path) {
		return false
	}
	for i := range a.path {
		if a.path[i] != b.path[i] {
			return false
		}
	}
	return true
}

// session is one neighbor's session state.
type session struct {
	state SessState
	// txSeq numbers every message sent to this peer.
	txSeq uint64
	// rxSeq is the next sequence number expected from the peer.
	rxSeq uint64
	// lastHeard is when the peer was last heard from; heard gates the
	// very first hold check.
	lastHeard netsim.Time
	heard     bool
	// adjOut is the Adj-RIB-Out: exactly what this speaker last sent and
	// did not withdraw. Withdrawals are emitted only for prefixes present
	// here, which is what kills the gratuitous-WITHDRAW inflation.
	adjOut map[addr.Prefix]advert
	// dirty accumulates prefixes whose export decision must be
	// re-evaluated against adjOut at the next MRAI flush.
	dirty     map[addr.Prefix]bool
	mraiArmed bool
	// stale marks ribIn prefixes awaiting confirmation during a
	// route-refresh resync; whatever is still marked at EOR is deleted.
	stale map[addr.Prefix]bool
}

func newSession(established bool) *session {
	st := SessIdle
	if established {
		st = SessEstablished
	}
	return &session{
		state:  st,
		adjOut: map[addr.Prefix]advert{},
		dirty:  map[addr.Prefix]bool{},
	}
}

// sortPrefixes orders prefixes deterministically (address, then length)
// so every map walk over RIB state replays identically run to run.
func sortPrefixes(ps []addr.Prefix) {
	sort.Slice(ps, func(i, j int) bool { return prefixLess(ps[i], ps[j]) })
}

func prefixLess(a, b addr.Prefix) bool {
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	return a.Len < b.Len
}
