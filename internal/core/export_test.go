package core

import "github.com/evolvable-net/evolve/internal/topology"

// FlowHealthInfo is the inspectable health of one delivery flow.
type FlowHealthInfo struct {
	// State is the flow's position in the degradation state machine.
	State healthState
	// Fails is the current consecutive vN failure count.
	Fails int
	// OkRun is the consecutive success count while in probation.
	OkRun int
	// SinceProbe and ProbeEvery describe the probe backoff position of a
	// flow in fallback (sends since the last probe, current interval).
	SinceProbe, ProbeEvery int
}

// FlowHealth reports the health record of the (src, dst) flow on the
// shared deployment address, false when the flow has never been seen (or
// the fallback layer is disabled). Safe to call concurrently with sends.
func (e *Evolution) FlowHealth(src, dst *topology.Host) (FlowHealthInfo, bool) {
	if e.health == nil {
		return FlowHealthInfo{}, false
	}
	h, ok := e.health.load(uint32(src.ID), keyOf(src, dst, e.Dep.Addr))
	if !ok {
		return FlowHealthInfo{}, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return FlowHealthInfo{
		State:      h.state,
		Fails:      h.fails,
		OkRun:      h.okRun,
		SinceProbe: h.sinceProbe,
		ProbeEvery: h.probeEvery,
	}, true
}
