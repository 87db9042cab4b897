package chaos

import "testing"

// TestAvailabilityDifferential is the acceptance proof of the graceful-
// degradation contract: under a seeded schedule whose forced outage
// black-holes at least one baseline-intact packet in the ablation arm,
// the fallback arm delivers every baseline-reachable packet — degraded,
// maybe, but never dark — and repairs back to the vN path after the
// redeploy.
func TestAvailabilityDifferential(t *testing.T) {
	rep, err := RunAvailability(1, 2, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Gate(); err != nil {
		t.Fatalf("availability gate: %v\nreport: %+v", err, rep)
	}
	if rep.Ablation.BaselineIntactLost == 0 {
		t.Error("ablation arm never black-holed — the schedule exercised nothing")
	}
	if rep.Fallback.BaselineIntactLost != 0 {
		t.Errorf("fallback arm lost %d baseline-intact packets", rep.Fallback.BaselineIntactLost)
	}
	if rep.Fallback.FallbackDeliveries == 0 {
		t.Error("fallback arm never degraded a delivery despite the forced outage")
	}
	if rep.DegradedSteps == 0 || rep.FallbackWindows == 0 {
		t.Errorf("no fallback windows recorded: degraded=%d windows=%d", rep.DegradedSteps, rep.FallbackWindows)
	}
	if rep.TimeToRepairSteps < 0 {
		t.Errorf("fallback arm never repaired after the redeploy: %+v", rep)
	}
	if rep.Fallback.DeliveredFraction < rep.Ablation.DeliveredFraction {
		t.Errorf("fallback delivered %.4f < ablation %.4f",
			rep.Fallback.DeliveredFraction, rep.Ablation.DeliveredFraction)
	}
}

// TestAvailabilityDifferentialDeterministic pins replayability: same
// seeds, same report.
func TestAvailabilityDifferentialDeterministic(t *testing.T) {
	a, err := RunAvailability(1, 2, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAvailability(1, 2, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("twin runs diverge:\n%+v\n%+v", *a, *b)
	}
}

// TestAvailabilityInvariantHoldsOnFallbackWorld runs the stock sweep
// configuration of the nightly fallback arm: a fallback-enabled live
// world under the availability invariant (plus the referees that are
// health-history agnostic).
func TestAvailabilityInvariantHoldsOnFallbackWorld(t *testing.T) {
	sc := StockFallbackScenario(42)
	rep, err := Run(sc, 1, 30, Options{Invariants: []string{"availability", "conserve"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("unexpected violation:\n%s", FormatReport(rep))
	}
	if rep.Checks == 0 {
		t.Fatal("no checks ran")
	}
}

// TestInvariantDocs pins the -list-invariants surface: every registered
// invariant has a one-line description.
func TestInvariantDocs(t *testing.T) {
	for _, name := range InvariantNames() {
		if InvariantDoc(name) == "" {
			t.Errorf("invariant %q has no doc line", name)
		}
	}
	if InvariantDoc("no-such") != "" {
		t.Error("unknown invariant has a doc line")
	}
}
