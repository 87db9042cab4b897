package bgp

import (
	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/topology"
)

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

// SessionState returns the session FSM state toward the neighbor.
func (s *Speaker) SessionState(nb topology.ASN) SessState {
	sess, ok := s.sessions[nb]
	if !ok {
		return SessIdle
	}
	return sess.state
}
