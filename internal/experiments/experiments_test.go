package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsPass runs every experiment and requires its verdict
// to be PASS — the repository's reproduction gate.
func TestAllExperimentsPass(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(42)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if !tbl.OK {
				t.Errorf("%s verdict: %s\n%s", e.ID, tbl.Verdict, tbl)
			}
			if len(tbl.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			if tbl.ID != e.ID {
				t.Errorf("table id %q != registry id %q", tbl.ID, e.ID)
			}
		})
	}
}

// TestExperimentsDeterministic: every table, E11's live overlay
// included, is a function of its id and seed; both renderings match
// whole, verdict lines too.
func TestExperimentsDeterministic(t *testing.T) {
	for _, e := range All() {
		a, err1 := e.Run(7)
		b, err2 := e.Run(7)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", e.ID, err1, err2)
		}
		if a.String() != b.String() {
			t.Errorf("%s: two runs at one seed differ:\n%s\nvs\n%s", e.ID, a, b)
		}
		if a.Markdown() != b.Markdown() {
			t.Errorf("%s: markdown differs between two runs at one seed", e.ID)
		}
	}
}

func TestTableString(t *testing.T) {
	tbl := &Table{
		ID: "EX", Title: "demo", Claim: "c",
		Columns: []string{"a", "long-header"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("wide-cell", "3")
	tbl.pass("fine")
	out := tbl.String()
	for _, want := range []string{"EX — demo", "claim: c", "long-header", "wide-cell", "PASS: fine"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
	tbl.fail("broken %d", 7)
	if !strings.Contains(tbl.String(), "FAIL: broken 7") {
		t.Error("fail verdict missing")
	}
}

func TestFig1Rows(t *testing.T) {
	tbl, err := Fig1SeamlessSpread(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Ingress column walks X, Y, Z.
	wants := []string{"X", "Y", "Z"}
	for i, w := range wants {
		if tbl.Rows[i][2] != w {
			t.Errorf("stage %d ingress = %q, want %q", i+1, tbl.Rows[i][2], w)
		}
		if tbl.Rows[i][4] != "none" {
			t.Errorf("stage %d endhost reconfig = %q", i+1, tbl.Rows[i][4])
		}
	}
}

func TestFig2Rows(t *testing.T) {
	tbl, err := Fig2DefaultRoutes(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestE7LinearityVisible(t *testing.T) {
	tbl, err := AnycastStateGrowth(3)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.OK {
		t.Fatalf("verdict: %s", tbl.Verdict)
	}
	if len(tbl.Rows) != 5 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
}

// simTime parses a netsim.Time cell ("1.102ms") back to microseconds.
func simTime(t *testing.T, cell string) float64 {
	t.Helper()
	ms, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(cell), "ms"), 64)
	if err != nil {
		t.Fatalf("not a sim time: %q", cell)
	}
	return ms * 1000
}

func TestE18Rows(t *testing.T) {
	tbl, err := AnycastFailoverDynamics(42)
	if err != nil {
		t.Fatal(err)
	}
	phases := []string{"cold start", "leaf origination", "leaf withdrawal", "hub-link flaps"}
	sizes := []string{"10 AS", "20 AS", "40 AS"}
	if len(tbl.Rows) != len(sizes)*len(phases) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(sizes)*len(phases))
	}
	for i, row := range tbl.Rows {
		size, phase := sizes[i/len(phases)], phases[i%len(phases)]
		if row[0] != size || row[1] != phase {
			t.Fatalf("row %d is %q / %q, want %q / %q", i, row[0], row[1], size, phase)
		}
		window := strings.Split(row[4], " / ")
		switch phase {
		case "leaf origination":
			if len(window) != 3 || simTime(t, window[0]) > simTime(t, window[1]) || simTime(t, window[1]) > simTime(t, window[2]) {
				t.Errorf("%s: first-route window %q is not min ≤ mean ≤ max", size, row[4])
			}
			if simTime(t, window[2]) > simTime(t, row[2]) {
				t.Errorf("%s: last first route %s after quiescence %s", size, window[2], row[2])
			}
			if n := strings.TrimSuffix(size, " AS"); row[5] != n+"/"+n+" reached" {
				t.Errorf("%s: %q, want every AS reached", size, row[5])
			}
		case "leaf withdrawal":
			if row[6] != "0" {
				t.Errorf("%s: %s AS stale at quiescence", size, row[6])
			}
			if len(window) != 3 || simTime(t, window[2]) > simTime(t, row[2]) {
				t.Errorf("%s: black-hole max %q exceeds the withdrawal's quiescence time %s", size, row[4], row[2])
			}
			if !strings.HasSuffix(row[5], " affected") || strings.HasPrefix(row[5], "0 ") {
				t.Errorf("%s: %q: the withdrawal affected nobody", size, row[5])
			}
		case "hub-link flaps":
			if !strings.HasSuffix(row[7], "matches fixpoint") {
				t.Errorf("%s: flap row %q does not match the fixpoint", size, row[7])
			}
			if strings.HasPrefix(row[7], "resyncs 0,") || strings.Contains(row[7], "downs 0,") {
				t.Errorf("%s: flap row %q: the short flap must resync and the long one take a session down", size, row[7])
			}
		}
	}
}

// TestE21Rows checks the table's shape only; the gate it renders is
// pinned by chaos.TestAvailabilityDifferential.
func TestE21Rows(t *testing.T) {
	tbl, err := FallbackAvailability(42)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.OK {
		t.Fatalf("verdict: %s", tbl.Verdict)
	}
	var lost []string
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("row %q has %d cells, want %d", row[0], len(row), len(tbl.Columns))
		}
		if row[0] == "lost with the baseline intact" {
			lost = row
		}
	}
	if lost == nil || lost[1] != "0" || lost[2] == "0" {
		t.Errorf("baseline-intact losses = %v, want 0 with fallback and some without", lost)
	}
}

func TestSweepsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	// Every experiment must pass on several seeds, not just the
	// documentation seed — the robustness gate behind EXPERIMENTS.md's
	// "stable across seeds" claim. (E11 is live networking; its sockets
	// make it slower, so it runs on one extra seed only.)
	for _, e := range All() {
		seeds := []int64{1, 2, 3}
		if e.ID == "E11" {
			seeds = []int64{1}
		}
		for _, seed := range seeds {
			tbl, err := e.Run(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", e.ID, seed, err)
			}
			if !tbl.OK {
				t.Errorf("%s seed %d: %s", e.ID, seed, tbl.Verdict)
			}
		}
	}
}
