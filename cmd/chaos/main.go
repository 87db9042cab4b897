// Command chaos drives randomized, seeded fault schedules against the
// stock deployment and checks the paper's liveness properties after
// every event: universal access (§3.1), vN-Bone connectivity (§3.3),
// trace-counter conservation, and equivalence between incremental
// reconvergence and a from-scratch rebuild. On violation it shrinks the
// schedule to a minimal reproducer and prints it as a replayable Go
// literal plus a path trace.
//
// Usage:
//
//	go run ./cmd/chaos -runs 200 -steps 50
//	go run ./cmd/chaos -seed 7 -invariants ua,oracle -v
//	go run ./cmd/chaos -list-invariants   # print the invariant registry
//	go run ./cmd/chaos -fallback     # fallback-enabled world under the availability SLO
//	go run ./cmd/chaos -session-runs 20   # BGP session sweep: faults mid-convergence
//
// The session sweep (-session-runs > 0) drives the event-driven BGP
// speakers with link flaps, originations, and withdrawals injected while
// convergence is in flight, probing transient path invariants throughout
// and checking the batch-fixpoint oracle at quiescence.
//
// Exit status is 1 when any run violates an invariant, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/evolvable-net/evolve/internal/chaos"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "base schedule seed; run r uses seed+r")
		runs       = flag.Int("runs", 1, "number of schedules to run")
		steps      = flag.Int("steps", 50, "events per schedule")
		invariants = flag.String("invariants", "", "comma-separated invariants to check (default all: "+strings.Join(chaos.InvariantNames(), ",")+")")
		shrink     = flag.Bool("shrink", true, "shrink a violating schedule to a minimal reproducer")
		topoSeed   = flag.Int64("topo-seed", 42, "seed for the stock 15-ISP transit-stub topology")
		out        = flag.String("out", "", "also write a violation report to this file")
		verbose    = flag.Bool("v", false, "log every run")
		listInvs   = flag.Bool("list-invariants", false, "print the invariant registry with one-line docs and exit")
		fallback   = flag.Bool("fallback", false, "run against the fallback-enabled stock world (graceful-degradation arm); defaults -invariants to the health-history-agnostic set")

		sessionRuns = flag.Int("session-runs", 0, "BGP session chaos runs (faults injected mid-convergence); 0 disables")
	)
	flag.Parse()

	if *listInvs {
		for _, name := range chaos.InvariantNames() {
			fmt.Printf("%-14s %s\n", name, chaos.InvariantDoc(name))
		}
		return
	}

	if *sessionRuns > 0 {
		failed, faults := 0, 0
		for r := 0; r < *sessionRuns; r++ {
			rep, err := chaos.RunSessionChaos(*seed+int64(r), false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos: session run %d: %v\n", r, err)
				os.Exit(2)
			}
			faults += rep.Events
			if !rep.Ok() {
				failed++
				fmt.Print(chaos.FormatSessionReport(rep))
			} else if *verbose {
				fmt.Print(chaos.FormatSessionReport(rep))
			}
		}
		if failed > 0 {
			fmt.Printf("chaos: session sweep: %d/%d runs FAILED\n", failed, *sessionRuns)
			os.Exit(1)
		}
		fmt.Printf("chaos: session sweep: %d run(s), %d faults: no violations, oracle clean\n", *sessionRuns, faults)
		return
	}

	var names []string
	if *invariants != "" {
		names = strings.Split(*invariants, ",")
	}
	sc := chaos.StockScenario(*topoSeed)
	if *fallback {
		sc = chaos.StockFallbackScenario(*topoSeed)
		if names == nil {
			// The oracle-equivalence invariants (ua, oracle, batchsend)
			// cannot referee a fallback-enabled live world: its per-flow
			// health history legitimately diverges from any fresh rebuild.
			names = []string{"availability", "bone", "conserve"}
		}
	}
	opts := chaos.Options{Invariants: names, Shrink: *shrink}

	for r := 0; r < *runs; r++ {
		rep, err := chaos.Run(sc, *seed+int64(r), *steps, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(2)
		}
		if rep.Violation == nil {
			if *verbose {
				fmt.Print(chaos.FormatReport(rep))
			}
			continue
		}
		report := chaos.FormatReport(rep)
		fmt.Print(report)
		if *out != "" {
			if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: writing %s: %v\n", *out, err)
			}
		}
		os.Exit(1)
	}
	fmt.Printf("chaos: %d run(s) × %d steps on %s: no invariant violations\n", *runs, *steps, sc.Name)
}
