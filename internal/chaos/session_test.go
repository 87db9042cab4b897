package chaos

import (
	"strings"
	"testing"
)

// TestSessionChaosInvariantsHoldMidConvergence: with real session
// machinery, every seeded fault schedule — flaps straddling the hold
// timer, originations, mid-stream withdrawals, all injected while
// UPDATE traffic is in flight — keeps the transient path invariants at
// every probe and matches the batch fixpoint at quiescence.
func TestSessionChaosInvariantsHoldMidConvergence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rep, err := RunSessionChaos(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Probes == 0 || rep.Checks == 0 {
			t.Fatalf("seed %d: probes never ran (%d probes, %d checks)", seed, rep.Probes, rep.Checks)
		}
		if rep.Events == 0 {
			t.Fatalf("seed %d: no faults injected", seed)
		}
		if !rep.Ok() {
			t.Errorf("seed %d failed:\n%s", seed, FormatSessionReport(rep))
		}
	}
}

// TestSessionChaosLegacyAblationSeesTheBug: the same schedules against
// the fire-and-forget speaker (no sessions) must fail the quiescence
// oracle — a WITHDRAW or UPDATE dropped on a downed link is permanently
// lost. This proves the harness detects the bug class the session
// machinery fixes; if legacy mode ever starts passing these seeds, the
// harness has gone blind, not the speaker correct.
//
// The report names the first mismatch in holder-then-prefix order (every
// domain aggregate, then the tracked anycast prefixes): the pinned heads
// below are those first mismatches, where the last one would name a
// later holder or prefix on seven of the eight seeds.
func TestSessionChaosLegacyAblationSeesTheBug(t *testing.T) {
	firstMismatch := map[int64]string{
		1: "AS1→240.0.0.1/32:", 2: "AS2→240.0.0.7/32:", 3: "AS1→240.0.0.3/32:", 4: "AS6→240.0.0.3/32:",
		5: "AS11→240.0.0.6/32:", 6: "AS10→240.0.0.1/32:", 7: "AS1→240.0.0.2/32:", 8: "AS1→240.0.0.1/32:",
	}
	failed := 0
	for seed := int64(1); seed <= 8; seed++ {
		rep, err := RunSessionChaos(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OracleOK {
			failed++
		}
		if want := firstMismatch[seed]; !strings.HasPrefix(rep.OracleDetail, want) {
			t.Errorf("seed %d: oracle detail %q, want the first mismatch %s…", seed, rep.OracleDetail, want)
		}
	}
	if failed == 0 {
		t.Error("no legacy run failed the oracle — the harness can no longer see lost-message staleness")
	}
}

// TestSessionChaosDeterministic: the same seed replays to the identical
// report — the property every shrinking/repro workflow depends on.
func TestSessionChaosDeterministic(t *testing.T) {
	a, err := RunSessionChaos(5, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSessionChaos(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Updates != b.Updates || a.Withdrawals != b.Withdrawals ||
		a.Resyncs != b.Resyncs || a.Downs != b.Downs ||
		a.Probes != b.Probes || a.Checks != b.Checks || a.Events != b.Events {
		t.Errorf("replay diverged:\n%s\nvs\n%s", FormatSessionReport(a), FormatSessionReport(b))
	}
}
