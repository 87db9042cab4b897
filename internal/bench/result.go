package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Schema identifies the result file format.
const Schema = "evolve-bench/1"

// Value is one reported figure. Q1, Q3 and N describe what it is the
// median of (windows, fresh builds or pooled samples); Whole is, beside
// a rate taken from the windows' undisturbed slices, the median rate
// over the windows' whole length, the machine's disturbances included;
// Tail and TailPct give, for a latency, the highest percentile with at
// least ten samples beyond it.
type Value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	N       int     `json:"n,omitempty"`
	Whole   float64 `json:"whole,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
}

// WorkloadResult is what one child process measured on one workload in
// one pass.
type WorkloadResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Windows  int    `json:"windows"`
	// Generators is the number of load-generating goroutines the workload
	// kept active: two on churn (a mutator beside a reader), else one.
	Generators int `json:"generators"`
	// Correct is false when any correctness check failed; Violations
	// says which. Attempted and Failed count deliveries.
	Correct    bool     `json:"correct"`
	Attempted  uint64   `json:"attempted"`
	Failed     uint64   `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// Metrics holds the end-to-end metrics, always from untraced
	// windows; Layers the per-layer metrics of a traced pass.
	Metrics map[string]Value `json:"metrics"`
	Layers  map[string]Value `json:"layers,omitempty"`
	// SelfMS is, per layer, the time the recorded spans spent in the
	// layer itself: each span's duration minus what its children cover.
	SelfMS map[string]float64 `json:"self_ms,omitempty"`
	// ShadowSumNS is the shadow replay's per-layer sum printed next to
	// core.send_ns.
	ShadowSumNS  float64 `json:"shadow_sum_ns,omitempty"`
	TraceFile    string  `json:"trace_file,omitempty"`
	SpansDropped uint64  `json:"spans_dropped,omitempty"`
	WallSeconds  float64 `json:"wall_seconds"`
}

// Env records where a result was measured.
type Env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Loopback   bool   `json:"loopback_only"`
}

// Run is one full pass over the workloads at one seed.
type Run struct {
	Seed      int64            `json:"seed"`
	Workloads []WorkloadResult `json:"workloads"`
	Traced    []WorkloadResult `json:"traced,omitempty"`
}

// Result is the result file: the environment and one or more runs.
type Result struct {
	Schema string `json:"schema"`
	Env    Env    `json:"env"`
	Runs   []Run  `json:"runs"`
}

// CollectEnv describes the machine and build. The commit is "unknown"
// outside a git checkout.
func CollectEnv() Env {
	e := Env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Loopback:   true,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// Generators is the most load-generating goroutines a workload may keep
// active: min(nproc, 2).
func Generators() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// WriteResult writes r to path as indented JSON.
func WriteResult(path string, r *Result) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadResult reads a result file and checks its schema tag.
func ReadResult(path string) (*Result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// ContractLine is the one-line summary the acceptance driver reads from
// a contract run's standard output.
type ContractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]ContractValue `json:"metrics"`
}

// ContractValue is one metric of a ContractLine.
type ContractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Contract reduces a workload result to the driver's line: the
// BENCHMARK.json end-to-end metrics of an untraced run, its per-layer
// list of a traced one. A listed metric the workload did not produce
// reads 0, which for an end-to-end metric is a bug the caller reports.
func (w *WorkloadResult) Contract() (ContractLine, error) {
	line := ContractLine{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]ContractValue{}}
	if !w.Traced {
		for _, m := range ContractEndToEnd() {
			v, ok := w.Metrics[m.Name]
			if !ok || v.Value == 0 {
				return line, fmt.Errorf("bench: %s did not measure %s", w.Workload, m.Name)
			}
			line.Metrics[m.Name] = ContractValue{v.Value, m.Unit}
		}
		return line, nil
	}
	for _, m := range ContractPerLayer() {
		v, ok := w.Layers[m.Name]
		if !ok {
			v = w.Metrics[m.Name]
		}
		line.Metrics[m.Name] = ContractValue{v.Value, m.Unit}
	}
	return line, nil
}
