package bench

import "testing"

// set makes a result set with one run per value of one metric.
func set(workload, metric string, values ...float64) *Result {
	r := &Result{Schema: Schema}
	for i, v := range values {
		r.Runs = append(r.Runs, Run{Seed: int64(i), Workloads: []WorkloadResult{{
			Workload: workload, Correct: true, Metrics: map[string]Value{metric: {Value: v}},
		}}})
	}
	return r
}

func TestAgree(t *testing.T) {
	row := func(a, b *Result) AgreeRow {
		t.Helper()
		rows := Agree(a, b)
		if len(rows) != 1 {
			t.Fatalf("got %d rows, want 1", len(rows))
		}
		return rows[0]
	}
	pps, _ := FindEndToEnd("delivered_pps")

	// Higher is better: a drop beyond the bound regresses, a rise never.
	base := set(FleetWarm, "delivered_pps", 100, 101, 99, 100, 100)
	if r := row(base, set(FleetWarm, "delivered_pps", 100*(1-pps.Bound/2))); r.Regressed() || r.Noisy {
		t.Errorf("half the bound regressed: %+v", r)
	}
	if r := row(base, set(FleetWarm, "delivered_pps", 100*(1-pps.Bound*1.1))); !r.Regressed() {
		t.Errorf("beyond the bound passed: %+v", r)
	}
	if r := row(base, set(FleetWarm, "delivered_pps", 1000)); r.Regressed() || r.Noisy || r.Worse >= 0 {
		t.Errorf("an improvement failed: %+v", r)
	}

	// Lower is better, absolute bound where the baseline is zero.
	zero := set(FleetWarm, "allocs_per_pkt", 0, 0, 0)
	if r := row(zero, set(FleetWarm, "allocs_per_pkt", 0.005)); r.Regressed() || r.Noisy {
		t.Errorf("within the absolute bound regressed: %+v", r)
	}
	if r := row(zero, set(FleetWarm, "allocs_per_pkt", 0.02)); !r.Regressed() {
		t.Errorf("beyond the absolute bound passed: %+v", r)
	}
	// A large baseline uses the relative bound instead.
	if r := row(set(FleetCold, "allocs_per_pkt", 50), set(FleetCold, "allocs_per_pkt", 51)); r.Regressed() || r.Noisy {
		t.Errorf("2%% on a baseline of 50 regressed: %+v", r)
	}
	if r := row(set(FleetCold, "allocs_per_pkt", 50), set(FleetCold, "allocs_per_pkt", 56)); !r.Regressed() {
		t.Errorf("12%% on a baseline of 50 passed: %+v", r)
	}

	// A set noisier than the bound resolves nothing; set-up is exempt.
	noisy := set(FleetWarm, "delivered_pps", 50, 100, 150, 60, 140)
	if r := row(noisy, noisy); r.Regressed() || !r.Noisy {
		t.Errorf("a spread beyond the bound was not flagged: %+v", r)
	}
	noisySetup := set(Churn, "setup_s", 1, 2, 3, 1.2, 2.8)
	if r := row(noisySetup, noisySetup); r.Regressed() || r.Noisy {
		t.Errorf("set-up spread was flagged: %+v", r)
	}

	// A metric the workload does not report is not compared.
	if rows := Agree(set(FleetWarm, "events_per_sec", 1), set(FleetWarm, "events_per_sec", 2)); len(rows) != 0 {
		t.Errorf("events_per_sec compared on fleet_warm: %+v", rows)
	}

	bad := set(Churn, "setup_s", 1)
	bad.Runs[0].Workloads[0].Correct = false
	if bad.Correct() || !base.Correct() {
		t.Error("Result.Correct")
	}
}
