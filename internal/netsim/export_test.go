package netsim

// Connected reports whether a usable (existing and not failed) link a–b
// exists.
func (f *Fabric) Connected(a, b int) bool {
	k := mkLink(a, b)
	_, ok := f.latency[k]
	return ok && !f.down[k]
}

// Broadcast sends msg from a node to all of the given neighbours.
func (f *Fabric) Broadcast(from int, neighbors []int, msg any) {
	for _, to := range neighbors {
		f.Send(from, to, msg)
	}
}
