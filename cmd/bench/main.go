// Command bench is the repository's performance ledger. It measures six
// named workloads, one child process each, and prints every metric by
// name with its unit; see README.md beside this file.
//
//	go run ./cmd/bench run -seed 42 -o result.json   # both passes, all workloads
//	go run ./cmd/bench agree a.json b.json           # compare two result sets
//	go run ./cmd/bench agree -sets 5                 # measure two sets, then compare
//	go run ./cmd/bench manifest                      # print BENCHMARK.json
//
// Called with flags only, it measures one workload in this process and
// prints one JSON line, which is how BENCHMARK.json's command
// (contract.sh beside this file) runs it:
//
//	bench --workload fleet_warm --seed 42 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"github.com/evolvable-net/evolve/internal/bench"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage()
	}
	var err error
	switch args[0] {
	case "run":
		err = cmdRun(args[1:])
	case "agree":
		err = cmdAgree(args[1:])
	case "manifest":
		err = cmdManifest()
	case "child":
		err = cmdOne(args[1:], false)
	default:
		if !strings.HasPrefix(args[0], "-") {
			usage()
		}
		err = cmdOne(args, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run|agree|manifest [flags]  |  bench --workload NAME --seed N --seconds N --trace 0|1")
	os.Exit(2)
}

// errIncorrect makes the process exit non-zero after a run whose
// correctness checks failed; the report has already been printed.
var errIncorrect = fmt.Errorf("a correctness check failed")

// cmdOne measures one workload in this process. As the contract command
// it prints the driver's line, and exits non-zero after it if a
// correctness check failed; as `bench run`'s child it prints the full
// result and leaves the verdict to its parent.
func cmdOne(args []string, contract bool) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 42, "seed of every topology, flow list and schedule")
	seconds := fs.Int("seconds", bench.RunSeconds, "one-second windows to measure")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	traceFile := fs.String("trace-file", "", "where the traced pass writes its spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := bench.Options{Seed: *seed, Windows: *seconds, Trace: *trace != 0, TraceFile: *traceFile}
	if contract && o.Trace && o.TraceFile == "" {
		// The driver's checkout keeps build products under .bench_build;
		// the spans go there too.
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		o.TraceFile = filepath.Join(".bench_build", *workload+".trace.json")
	}
	res, err := bench.RunWorkload(*workload, o)
	if err != nil {
		return err
	}
	var line any = res
	if contract {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "bench: violation:", v)
		}
		if line, err = res.Contract(); err != nil {
			return err
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	if contract && !res.Correct {
		return errIncorrect
	}
	return nil
}

func cmdManifest() error {
	buf, err := json.MarshalIndent(bench.BuildManifest(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// runConfig is what `bench run` and `bench agree -sets` share. The
// window counts are not in it: bench.RunSeconds and bench.TraceWindows
// are constants, so that any two result sets were measured at the same
// length.
type runConfig struct {
	seed      int64
	repeat    int
	workloads []string
	pass      string
	out       string
}

func (c *runConfig) register(fs *flag.FlagSet) {
	fs.Int64Var(&c.seed, "seed", 42, "seed of the first run; run i uses seed+i")
	fs.Func("workloads", "comma-separated workloads (default all)", func(s string) error {
		c.workloads = strings.Split(s, ",")
		return nil
	})
}

func cmdRun(args []string) error {
	var c runConfig
	fs := flag.NewFlagSet("bench run", flag.ExitOnError)
	c.register(fs)
	fs.IntVar(&c.repeat, "n", 1, "full runs to make")
	fs.StringVar(&c.pass, "pass", "both", "untraced, traced or both")
	fs.StringVar(&c.out, "o", "result.json", "result file; trace files are written beside it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := c.run(os.Stdout)
	if err != nil {
		return err
	}
	if err := bench.WriteResult(c.out, res); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", c.out)
	if !res.Correct() {
		return errIncorrect
	}
	return nil
}

// run makes c.repeat full runs, one child process per workload and
// pass, printing each workload's metrics as it finishes.
func (c *runConfig) run(w *os.File) (*bench.Result, error) {
	if len(c.workloads) == 0 {
		for _, s := range bench.Workloads {
			c.workloads = append(c.workloads, s.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &bench.Result{Schema: bench.Schema, Env: bench.CollectEnv()}
	fmt.Fprintf(w, "env: commit %s, %s %s/%s, GOMAXPROCS %d, nproc %d, %s, loopback only\n",
		res.Env.Commit, res.Env.GoVersion, res.Env.GOOS, res.Env.GOARCH, res.Env.GOMAXPROCS, res.Env.NProc, res.Env.CPU)
	child := func(name string, seed int64, windows int, traceFile string) (bench.WorkloadResult, error) {
		var wr bench.WorkloadResult
		args := []string{"child", "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(windows)}
		if traceFile != "" {
			args = append(args, "-trace", "1", "-trace-file", traceFile)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return wr, fmt.Errorf("%s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &wr); err != nil {
			return wr, fmt.Errorf("%s: child output: %w", name, err)
		}
		return wr, nil
	}
	for i := 0; i < c.repeat; i++ {
		run := bench.Run{Seed: c.seed + int64(i)}
		fmt.Fprintf(w, "\n== run %d of %d, seed %d ==\n", i+1, c.repeat, run.Seed)
		if c.pass != "traced" {
			for _, name := range c.workloads {
				wr, err := child(name, run.Seed, bench.RunSeconds, "")
				if err != nil {
					return nil, err
				}
				printWorkload(w, &wr)
				run.Workloads = append(run.Workloads, wr)
			}
		}
		if c.pass != "untraced" {
			for _, name := range c.workloads {
				traceFile := fmt.Sprintf("%s.%s.trace.json", strings.TrimSuffix(c.out, ".json"), name)
				wr, err := child(name, run.Seed, bench.TraceWindows, traceFile)
				if err != nil {
					return nil, err
				}
				printWorkload(w, &wr)
				run.Traced = append(run.Traced, wr)
			}
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// printWorkload prints every metric the workload reported, by name with
// its unit.
func printWorkload(w *os.File, wr *bench.WorkloadResult) {
	pass := "untraced"
	if wr.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n-- %s (%s pass, %d windows, generators %d, %.1f s) correct=%t attempted=%d failed=%d\n",
		wr.Workload, pass, wr.Windows, wr.Generators, wr.WallSeconds, wr.Correct, wr.Attempted, wr.Failed)
	for _, v := range wr.Violations {
		fmt.Fprintf(w, "   VIOLATION: %s\n", v)
	}
	if !wr.Traced {
		for _, m := range bench.EndToEnd {
			v, ok := wr.Metrics[m.Name]
			if !ok || !m.ReportedOn(wr.Workload) {
				continue
			}
			fmt.Fprintf(w, "   %-26s %14.4f %-10s", m.Name, v.Value, v.Unit)
			if v.Q3 != 0 || v.Q1 != 0 {
				fmt.Fprintf(w, "  [q1 %.4f, q3 %.4f, n %d]", v.Q1, v.Q3, v.N)
			} else if v.N > 1 {
				fmt.Fprintf(w, "  [n %d]", v.N)
			}
			if v.Whole != 0 {
				fmt.Fprintf(w, "  over the windows' whole length %.4f", v.Whole)
			}
			if v.TailPct != 0 {
				fmt.Fprintf(w, "  p%g = %.4f", v.TailPct, v.Tail)
			}
			fmt.Fprintln(w)
		}
		return
	}
	// Each per-layer metric is printed with what it should move.
	for _, m := range bench.PerLayer {
		v, ok := wr.Layers[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-36s %14.4f %-8s [n %d]  moves: %s", m.Name, v.Value, v.Unit, v.N, m.Moves)
		if m.NoChange != "" {
			fmt.Fprintf(w, "; no change on: %s", m.NoChange)
		}
		fmt.Fprintln(w)
	}
	if send, ok := wr.Layers["core.send_ns"]; ok && wr.ShadowSumNS > 0 {
		fmt.Fprintf(w, "   budget: shadow-replay sum %.1f ns of core.send_ns %.1f ns; core.unattributed_ns %.1f ns\n",
			wr.ShadowSumNS, send.Value, wr.Layers["core.unattributed_ns"].Value)
	}
	layers := make([]string, 0, len(wr.SelfMS))
	for l := range wr.SelfMS {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprint(w, "   self time of the recorded spans, ms:")
	for _, l := range layers {
		fmt.Fprintf(w, " %s %.1f", l, wr.SelfMS[l])
	}
	fmt.Fprintln(w)
	if wr.TraceFile != "" {
		fmt.Fprintf(w, "   spans: %s (%d dropped)\n", wr.TraceFile, wr.SpansDropped)
	}
}

// cmdAgree compares two result sets, read from two files or, with
// -sets, measured now and kept as agree_a.json and agree_b.json in the
// working directory.
func cmdAgree(args []string) error {
	var c runConfig
	fs := flag.NewFlagSet("bench agree", flag.ExitOnError)
	c.register(fs)
	sets := fs.Int("sets", 0, "measure two sets of this many runs each instead of reading two files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var a, b *bench.Result
	var err error
	switch {
	case *sets > 0:
		c.repeat, c.pass = *sets, "untraced"
		for i, dst := range []**bench.Result{&a, &b} {
			c.out = fmt.Sprintf("agree_%c.json", 'a'+i)
			if *dst, err = c.run(os.Stdout); err != nil {
				return err
			}
			if err := bench.WriteResult(c.out, *dst); err != nil {
				return err
			}
		}
	case fs.NArg() == 2:
		if a, err = bench.ReadResult(fs.Arg(0)); err != nil {
			return err
		}
		if b, err = bench.ReadResult(fs.Arg(1)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("agree needs two result files or -sets N")
	}
	rows := bench.Agree(a, b)
	bench.PrintAgreement(os.Stdout, rows)
	regressed, unresolved := 0, 0
	for _, r := range rows {
		switch {
		case r.Regressed():
			regressed++
		case r.Noisy:
			unresolved++
		}
	}
	fmt.Printf("\n%d comparisons: %d regressed, %d unresolved (a set's own spread is wider than the bound)\n", len(rows), regressed, unresolved)
	switch {
	case !a.Correct() || !b.Correct():
		return errIncorrect
	case regressed > 0:
		return fmt.Errorf("set B is worse than set A beyond a bound")
	}
	return nil
}
