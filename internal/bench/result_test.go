package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenResult exercises every field of the result schema.
func goldenResult() *Result {
	return &Result{
		Schema: Schema,
		Env: Env{
			Commit: "54bfa36", GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
			GOMAXPROCS: 2, NProc: 2, CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz", Loopback: true,
		},
		Runs: []Run{{
			Seed: 42,
			Workloads: []WorkloadResult{{
				Workload: LiveUDP, Seed: 42, Windows: 15, Generators: 1, Correct: true, Attempted: 1000, Failed: 0,
				Metrics: map[string]Value{
					"delivered_pps":  {Value: 52000.5, Unit: "pkt/s", Q1: 51000, Q3: 53000.25, N: 8},
					"latency_us_p99": {Value: 170.5, Unit: "us", N: 150000, Tail: 420.125, TailPct: 99.99},
					"failed_frac":    {Value: 0, Unit: "frac", N: 1000},
				},
				WallSeconds: 16.5,
			}},
			Traced: []WorkloadResult{{
				Workload: FleetWarm, Seed: 42, Traced: true, Windows: 6, Generators: 1, Correct: false, Attempted: 10, Failed: 1,
				Violations: []string{"1 of 10 deliveries failed"},
				Metrics:    map[string]Value{"setup_s": {Value: 0.33, Unit: "s", Q1: 0.3, Q3: 0.375, N: 5}},
				Layers: map[string]Value{
					"core.send_ns":         {Value: 1550, Unit: "ns", N: 41816},
					"core.unattributed_ns": {Value: 912.5, Unit: "ns", N: 654},
				},
				SelfMS:      map[string]float64{"core": 61.5, "tunnel": 0.25},
				ShadowSumNS: 637.5, TraceFile: "result.fleet_warm.trace.json", SpansDropped: 3, WallSeconds: 8.25,
			}},
		}},
	}
}

func TestResultGoldenRoundTrip(t *testing.T) {
	golden := filepath.Join("testdata", "result.golden.json")
	want := goldenResult()
	path := filepath.Join(t.TempDir(), "result.json")
	if err := WriteResult(path, want); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, written, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	onDisk, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != string(onDisk) {
		t.Errorf("the result schema changed; if intended, run go test -update and bump Schema\n got %s\nwant %s", written, onDisk)
	}
	got, err := ReadResult(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden file decodes to %+v, want %+v", got, want)
	}

	bad := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"evolve-bench/0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResult(bad); err == nil {
		t.Error("a file with another schema tag was accepted")
	}
}

// The driver's line has exactly the four keys, every listed metric and
// nothing else.
func TestContractLine(t *testing.T) {
	w := &WorkloadResult{Workload: Churn, Correct: true, Attempted: 5, Metrics: map[string]Value{}}
	for _, m := range EndToEnd {
		w.Metrics[m.Name] = Value{Value: 1.5, Unit: m.Unit}
	}
	line, err := w.Contract()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Errorf("contract line %s", buf)
	}
	if len(line.Metrics) != len(ContractEndToEnd()) {
		t.Errorf("%d metrics, want %d", len(line.Metrics), len(ContractEndToEnd()))
	}
	delete(w.Metrics, "setup_s")
	if _, err := w.Contract(); err == nil {
		t.Error("a missing end-to-end metric went unnoticed")
	}

	w.Traced = true
	w.Layers = map[string]Value{"core.send_ns": {Value: 700, Unit: "ns"}}
	line, err = w.Contract()
	if err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(ContractPerLayer()) {
		t.Errorf("%d per-layer metrics, want %d", len(line.Metrics), len(ContractPerLayer()))
	}
	if line.Metrics["core.send_ns"].Value != 700 || line.Metrics["events_per_sec"].Value != 1.5 || line.Metrics["rib.lookup4_ns"].Value != 0 {
		t.Errorf("traced line %+v", line.Metrics)
	}
}
