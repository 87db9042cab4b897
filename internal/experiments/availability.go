package experiments

import (
	"fmt"

	"github.com/evolvable-net/evolve/internal/chaos"
)

// FallbackAvailability is E21: universal access as an availability
// promise. Twin stock internets over one topology — one with the
// delivery plane's per-flow fallback to the IPv(N-1) baseline, one
// failing fast — are driven through one seeded fault schedule plus a
// forced outage in which every IPvN router un-deploys; ring-pair traffic
// is tallied on both after every event (chaos.RunAvailability). The
// verdict is AvailReport.Gate: the fallback world never loses a packet
// whose baseline path was intact, the twin does, and falling back never
// delivers less.
func FallbackAvailability(seed int64) (*Table, error) {
	t := &Table{
		ID:      "E21",
		Title:   "availability under faults: baseline fallback vs fail-fast",
		Claim:   "while IPv(N-1) still connects two hosts an IPvN send between them is never lost: a failed vN delivery rides the baseline, and the flow repairs back to vN once the deployment returns",
		Columns: []string{"measure", "fallback", "fail-fast twin"},
	}
	const steps, pairs = 60, 4
	rep, err := chaos.RunAvailability(seed, seed+1, steps, pairs)
	if err != nil {
		return nil, err
	}
	fb, ff := rep.Fallback, rep.Ablation
	num := func(measure string, a, b int) {
		t.AddRow(measure, fmt.Sprintf("%d", a), fmt.Sprintf("%d", b))
	}
	num("sends", fb.Sent, ff.Sent)
	num("delivered", fb.Delivered, ff.Delivered)
	t.AddRow("delivered fraction", fmt.Sprintf("%.4f", fb.DeliveredFraction), fmt.Sprintf("%.4f", ff.DeliveredFraction))
	num("lost", fb.Lost, ff.Lost)
	num("lost with the baseline intact", fb.BaselineIntactLost, ff.BaselineIntactLost)
	t.AddRow("delivered over the baseline", fmt.Sprintf("%d", fb.FallbackDeliveries), "-")
	t.AddRow("steps with a baseline delivery", fmt.Sprintf("%d of %d", rep.DegradedSteps, rep.Steps), "-")
	t.AddRow("fallback windows (longest)", fmt.Sprintf("%d (%d steps)", rep.FallbackWindows, rep.LongestWindowSteps), "-")
	repair := "never"
	if rep.TimeToRepairSteps >= 0 {
		repair = fmt.Sprintf("%d steps", rep.TimeToRepairSteps)
	}
	t.AddRow("back on vN after the redeploy", repair, "-")
	t.AddRow("forced outage", fmt.Sprintf("steps %d–%d", rep.OutageStart, rep.OutageEnd), "same")

	if err := rep.Gate(); err != nil {
		t.fail("%v", err)
	} else {
		t.pass("no baseline-intact packet lost with fallback (the fail-fast twin lost %d); delivered %.4f against %.4f",
			ff.BaselineIntactLost, fb.DeliveredFraction, ff.DeliveredFraction)
	}
	return t, nil
}
