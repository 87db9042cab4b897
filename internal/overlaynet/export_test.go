package overlaynet

import (
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
)

// Heal restores a previously partitioned link.
func (ft *FaultTransport) Heal(a, b addr.V4) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	delete(ft.cut, pairKey(a, b))
}

// setSuspected sets this node's own verdict on a peer its routes name, as
// its prober would; the node steers around a peer it suspects.
func (n *Node) setSuspected(peer addr.V4, on bool) {
	ps := (*n.peers.Load())[peer]
	if ps == nil {
		panic("overlaynet: setSuspected on an address no route names")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ps.suspected.Store(on)
}

// enableLivenessEvery is EnableLiveness with a probe round every d.
func (n *Node) enableLivenessEvery(d time.Duration) {
	n.mu.Lock()
	n.probeEvery = d
	n.mu.Unlock()
	n.EnableLiveness()
}
