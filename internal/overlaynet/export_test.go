package overlaynet

import "github.com/evolvable-net/evolve/internal/addr"

// Heal restores a previously partitioned link.
func (ft *FaultTransport) Heal(a, b addr.V4) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	delete(ft.cut, pairKey(a, b))
}

// AddPeer adds an explicit liveness probing target (route next hops are
// added automatically); no-op unless EnableLiveness has been or will be
// called.
func (n *Node) AddPeer(p addr.V4) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addPeerLocked(p)
}

// Suspected reports whether any node currently considers a dead.
func (r *Registry) Suspected(a addr.V4) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.suspected[a]) > 0
}
