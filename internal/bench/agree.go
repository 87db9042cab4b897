package bench

import (
	"fmt"
	"io"
	"math"
)

// Correct reports whether every workload of every run passed its
// correctness checks.
func (r *Result) Correct() bool {
	for _, run := range r.Runs {
		for _, ws := range [][]WorkloadResult{run.Workloads, run.Traced} {
			for _, w := range ws {
				if !w.Correct {
					return false
				}
			}
		}
	}
	return true
}

// values gathers one end-to-end metric of one workload over the runs of
// a result set.
func (r *Result) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		for _, w := range run.Workloads {
			if v, ok := w.Metrics[metric]; ok && w.Workload == workload {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// AgreeRow compares one end-to-end metric on one workload between two
// result sets.
type AgreeRow struct {
	Workload string
	Metric   Metric
	A, B     Dist
	// Worse is how far B's median lies on the bad side of A's (negative
	// when B is better) and Limit how far it may: the metric's bound as
	// a share of A's median, or its absolute bound where that is larger.
	Worse, Limit float64
	// Noisy is set when either set's own interquartile spread exceeds
	// the limit, so that agreement within it shows nothing. Set-up time
	// is exempt, as it is for the acceptance driver.
	Noisy bool
}

// Regressed reports whether B is worse than A by more than the limit.
func (r AgreeRow) Regressed() bool { return r.Worse > r.Limit }

// Agree compares two result sets metric by metric, against the bounds
// of the EndToEnd table: every end-to-end metric on every workload that
// reports it in both sets.
func Agree(a, b *Result) []AgreeRow {
	var rows []AgreeRow
	for _, w := range Workloads {
		for _, m := range EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if !m.ReportedOn(w.Name) || len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := AgreeRow{Workload: w.Name, Metric: m, A: Summarize(va), B: Summarize(vb)}
			row.Worse = row.B.Median - row.A.Median
			if m.Better == "higher" {
				row.Worse = -row.Worse
			}
			row.Limit = math.Max(m.Bound*math.Abs(row.A.Median), m.AbsBound)
			if m.Name != "setup_s" {
				row.Noisy = row.A.Q3-row.A.Q1 > row.Limit || row.B.Q3-row.B.Q1 > row.Limit
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintAgreement prints each side's median and quartiles per metric and
// the verdict.
func PrintAgreement(w io.Writer, rows []AgreeRow) {
	fmt.Fprintf(w, "%-12s %-20s %-10s %38s %38s %10s %10s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "worse", "limit", "verdict")
	side := func(d Dist) string { return fmt.Sprintf("%.4g [%.4g, %.4g] %d", d.Median, d.Q1, d.Q3, d.N) }
	for _, r := range rows {
		verdict := "ok"
		switch {
		case r.Regressed():
			verdict = "REGRESSED"
		case r.Noisy:
			verdict = "UNRESOLVED (spread beyond bound)"
		}
		fmt.Fprintf(w, "%-12s %-20s %-10s %38s %38s %10.4g %10.4g  %s\n",
			r.Workload, r.Metric.Name, r.Metric.Unit, side(r.A), side(r.B), r.Worse, r.Limit, verdict)
	}
}
