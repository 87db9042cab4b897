// Command figgen regenerates every figure/experiment table of the paper
// reproduction (DESIGN.md §4) and prints them with PASS/FAIL verdicts.
//
// Usage:
//
//	figgen [-seed N] [-e E3]        # all experiments, or just one
//	figgen -list                    # list experiment ids
//
// Experiments run one after another on one goroutine; only E11, which
// drives a live UDP overlay, starts goroutines of its own. All 21 take
// well under a second. Every table is a function of its id and seed:
// two runs at one seed print the same bytes.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/evolvable-net/evolve"
)

func main() {
	seed := flag.Int64("seed", 42, "experiment seed (fixes topology and workload)")
	one := flag.String("e", "", "run a single experiment id (e.g. E3)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	md := flag.Bool("md", false, "emit GitHub-flavoured markdown (for EXPERIMENTS.md)")
	seeds := flag.Int("seeds", 1, "run each experiment across N seeds and report PASS rates")
	flag.Parse()

	if *list {
		for _, id := range evolve.Experiments() {
			fmt.Println(id)
		}
		return
	}

	ids := evolve.Experiments()
	if *one != "" {
		ids = []string{*one}
	}

	if *seeds > 1 {
		// Robustness sweep: PASS rate per experiment across seeds.
		exit := 0
		for _, id := range ids {
			pass, total := 0, 0
			for s := int64(0); s < int64(*seeds); s++ {
				tbl, err := evolve.RunExperiment(id, *seed+s)
				total++
				if err == nil && tbl.OK {
					pass++
				} else if err != nil {
					fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", id, *seed+s, err)
				}
			}
			status := "PASS"
			if pass != total {
				status = "FLAKY"
				exit = 1
			}
			fmt.Printf("%-4s %d/%d %s\n", id, pass, total, status)
		}
		os.Exit(exit)
	}

	failed := 0
	for _, id := range ids {
		tbl, err := evolve.RunExperiment(id, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", id, err)
			failed++
			continue
		}
		if *md {
			fmt.Println(tbl.Markdown())
		} else {
			fmt.Println(tbl)
		}
		if !tbl.OK {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
