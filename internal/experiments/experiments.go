// Package experiments contains the reproduction harness: one named,
// parameterised experiment per figure of the paper plus the quantitative
// sweeps derived from its design discussion (see DESIGN.md §4 for the
// index). Each experiment returns a Table whose rows are the data the
// corresponding figure/claim illustrates, and a computed verdict checking
// the paper's qualitative claim against the measured outcome.
//
// The experiments are deliberately deterministic: a seed fully fixes the
// topology, deployment schedule and workload, so EXPERIMENTS.md can quote
// exact numbers.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E1").
	ID string
	// Title names the experiment.
	Title string
	// Claim quotes the paper's qualitative claim under test.
	Claim string
	// Columns and Rows hold the data.
	Columns []string
	Rows    [][]string
	// Verdict summarises the check of Claim against the data.
	Verdict string
	// OK reports whether the claim held.
	OK bool
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// pass/fail set the verdict.
func (t *Table) pass(format string, args ...any) {
	t.OK = true
	t.Verdict = "PASS: " + fmt.Sprintf(format, args...)
}

func (t *Table) fail(format string, args ...any) {
	t.OK = false
	t.Verdict = "FAIL: " + fmt.Sprintf(format, args...)
}

// String renders an aligned plain-text table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Verdict != "" {
		fmt.Fprintf(&b, "%s\n", t.Verdict)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured markdown, for
// EXPERIMENTS.md regeneration.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "**Claim.** %s\n\n", t.Claim)
	}
	b.WriteString("|")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString("|")
		for _, cell := range row {
			fmt.Fprintf(&b, " %s |", cell)
		}
		b.WriteByte('\n')
	}
	if t.Verdict != "" {
		fmt.Fprintf(&b, "\n**%s**\n", t.Verdict)
	}
	return b.String()
}

// Runner is the signature every experiment exposes.
type Runner func(seed int64) (*Table, error)

// All lists every experiment in id order for cmd/figgen and the bench
// harness.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"E1", Fig1SeamlessSpread},
		{"E2", Fig2DefaultRoutes},
		{"E3", Fig3EgressSelection},
		{"E4", Fig4AdvByProxy},
		{"E5", UAStretchVsDeployment},
		{"E6", RedirectorComparison},
		{"E7", AnycastStateGrowth},
		{"E8", VNBoneConstruction},
		{"E9", AdoptionDynamics},
		{"E10", SelfAddressing},
		{"E11", LiveOverlay},
		{"E12", IntraDomainAnycast},
		{"E13", FailureResilience},
		{"E14", EndhostRegistration},
		{"E15", ProviderChoice},
		{"E16", GIAComparison},
		{"E17", ConvergenceDynamics},
		{"E18", AnycastFailoverDynamics},
		{"E19", MulticastPayoff},
		{"E20", DefaultDomainDependence},
		{"E21", FallbackAvailability},
	}
}
