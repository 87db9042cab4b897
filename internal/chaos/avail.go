package chaos

import (
	"fmt"

	"github.com/evolvable-net/evolve/internal/topology"
)

// AvailArm tallies one arm of the availability differential.
type AvailArm struct {
	// Scenario names the arm's world.
	Scenario string
	// Sent counts delivery attempts.
	Sent int
	// Delivered counts successful deliveries (vN or baseline).
	Delivered int
	// Lost counts failed sends.
	Lost int
	// BaselineIntactLost counts losses on pairs whose IPv(N-1) baseline
	// was intact at send time — black holes the fallback layer is
	// contractually required to prevent.
	BaselineIntactLost int
	// FallbackDeliveries counts deliveries that rode the baseline.
	FallbackDeliveries int
	// DeliveredFraction is Delivered / Sent.
	DeliveredFraction float64
}

// AvailReport is the outcome of one availability differential run: twin
// worlds over the same topology seed — one with the graceful-degradation
// layer enabled, one ablated — driven through the same generated fault
// schedule plus a forced full-undeploy outage, with ring-pair traffic
// tallied per step on both arms.
type AvailReport struct {
	// TopoSeed seeds the shared topology; Seed seeds the fault schedule.
	TopoSeed int64
	Seed     int64
	// Steps is the number of schedule events actually applied.
	Steps int
	// PairsPerStep is the number of ring pairs exercised after each event.
	PairsPerStep int
	// OutageStart/OutageEnd delimit the forced full-undeploy window
	// (deploy events inside it are suppressed so the deployment stays
	// dark in both arms).
	OutageStart int
	OutageEnd   int

	// Fallback is the arm with the degradation layer enabled; Ablation is
	// the fail-fast twin.
	Fallback AvailArm
	Ablation AvailArm

	// DegradedSteps counts steps during which the fallback arm made at
	// least one baseline delivery; FallbackWindows counts maximal runs of
	// such steps and LongestWindowSteps the longest one.
	DegradedSteps      int
	FallbackWindows    int
	LongestWindowSteps int
	// TimeToRepairSteps is the number of steps after the outage's
	// redeploy until the fallback arm's first fully-vN step (no baseline
	// deliveries); -1 if it never fully recovered within the run.
	TimeToRepairSteps int
}

// Gate validates the availability SLO differential, returning a non-nil
// error when the run disproves (or fails to prove) the degradation
// contract: the fallback arm lost a baseline-intact packet, the schedule
// never black-holed the ablation arm (so the differential shows
// nothing), or the fallback arm's delivered fraction fell below the
// ablation arm's.
func (r *AvailReport) Gate() error {
	if r.Fallback.BaselineIntactLost > 0 {
		return fmt.Errorf("fallback arm lost %d baseline-intact packet(s)", r.Fallback.BaselineIntactLost)
	}
	if r.Ablation.BaselineIntactLost == 0 {
		return fmt.Errorf("ablation arm never black-holed a baseline-intact packet; the differential proves nothing")
	}
	if r.Fallback.DeliveredFraction < r.Ablation.DeliveredFraction {
		return fmt.Errorf("fallback delivered fraction %.4f below ablation's %.4f",
			r.Fallback.DeliveredFraction, r.Ablation.DeliveredFraction)
	}
	return nil
}

// RunAvailability drives the availability differential: twin stock
// worlds over topoSeed (StockFallbackScenario vs StockScenario), one
// schedule generated from seed applied to both, plus a deterministic
// forced outage — every member undeployed for the middle sixth of the
// run, then redeployed — that Generate alone never produces (it keeps at
// least one member deployed). After every event, `pairs` ring pairs send
// on both arms and the tallies land in the report. The run itself never
// fails on SLO grounds; call Gate on the report for the pass/fail
// verdict.
func RunAvailability(topoSeed, seed int64, steps, pairs int) (*AvailReport, error) {
	wFB, err := NewWorld(StockFallbackScenario(topoSeed))
	if err != nil {
		return nil, err
	}
	wAB, err := NewWorld(StockScenario(topoSeed))
	if err != nil {
		return nil, err
	}
	schedule := Generate(wFB, seed, steps)
	n := len(schedule)
	if n == 0 {
		return nil, fmt.Errorf("chaos: availability: empty schedule for seed %d", seed)
	}
	if pairs < 1 {
		pairs = 1
	}

	outStart := n / 3
	outLen := n / 6
	if outLen < 3 {
		outLen = 3
	}
	outEnd := outStart + outLen
	if outEnd > n {
		outEnd = n
	}

	rep := &AvailReport{
		TopoSeed:          topoSeed,
		Seed:              seed,
		Steps:             n,
		PairsPerStep:      pairs,
		OutageStart:       outStart,
		OutageEnd:         outEnd,
		Fallback:          AvailArm{Scenario: wFB.scenario.Name},
		Ablation:          AvailArm{Scenario: wAB.scenario.Name},
		TimeToRepairSteps: -1,
	}

	hosts := wFB.Net.Hosts
	nh := len(hosts)
	if nh < 2 {
		return nil, fmt.Errorf("chaos: availability: need >= 2 hosts, have %d", nh)
	}
	payload := []byte("avail")
	var savedFB, savedAB []topology.RouterID
	prevFBSends := uint64(0)
	degradedAt := make([]bool, n)
	for i := 0; i < n; i++ {
		if i == outStart {
			savedFB = append([]topology.RouterID(nil), wFB.Evo.Dep.Members()...)
			savedAB = append([]topology.RouterID(nil), wAB.Evo.Dep.Members()...)
			for _, m := range savedFB {
				wFB.Evo.UndeployRouter(m)
			}
			for _, m := range savedAB {
				wAB.Evo.UndeployRouter(m)
			}
		}
		if i == outEnd {
			wFB.Evo.DeployRouters(savedFB)
			wAB.Evo.DeployRouters(savedAB)
		}
		ev := schedule[i]
		inOutage := i >= outStart && i < outEnd
		if !inOutage || (ev.Kind != DeployRouter && ev.Kind != DeployDomain) {
			wFB.Apply(ev)
			wAB.Apply(ev)
		}
		for j := 0; j < pairs; j++ {
			src := hosts[(i+j)%nh]
			dst := hosts[(i+j+1)%nh]
			if src.ID == dst.ID {
				continue
			}
			_, baseErr := wFB.Evo.Fwd.HostToHost(src, dst)
			intact := baseErr == nil
			fd, ferr := wFB.Evo.Send(src, dst, payload)
			availTally(&rep.Fallback, intact, ferr, fd.Fallback)
			_, aerr := wAB.Evo.Send(src, dst, payload)
			availTally(&rep.Ablation, intact, aerr, false)
		}
		snap := wFB.Evo.Snapshot().DeliveryFallbackSends
		degradedAt[i] = snap > prevFBSends
		prevFBSends = snap
	}

	window := 0
	for i := 0; i < n; i++ {
		if degradedAt[i] {
			rep.DegradedSteps++
			if window == 0 {
				rep.FallbackWindows++
			}
			window++
			if window > rep.LongestWindowSteps {
				rep.LongestWindowSteps = window
			}
		} else {
			window = 0
		}
	}
	for i := outEnd; i < n; i++ {
		if !degradedAt[i] {
			rep.TimeToRepairSteps = i - outEnd
			break
		}
	}
	finish := func(a *AvailArm) {
		if a.Sent > 0 {
			a.DeliveredFraction = float64(a.Delivered) / float64(a.Sent)
		}
	}
	finish(&rep.Fallback)
	finish(&rep.Ablation)
	return rep, nil
}

// availTally records one delivery attempt in an arm.
func availTally(a *AvailArm, baselineIntact bool, err error, degraded bool) {
	a.Sent++
	if err != nil {
		a.Lost++
		if baselineIntact {
			a.BaselineIntactLost++
		}
		return
	}
	a.Delivered++
	if degraded {
		a.FallbackDeliveries++
	}
}
