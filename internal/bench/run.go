// Package bench is the repository's performance ledger: six named
// workloads that each answer one question a user of the system asks,
// measured from outside through the public functions and counters of
// every layer. RunWorkload measures one workload in one process;
// cmd/bench drives one child process per workload and pass.
//
// A run has an untraced pass, which yields the end-to-end metrics, and a
// traced pass, which alternates untraced and traced windows, records a
// span around every call the bench makes into a layer, and yields the
// per-layer metrics. All load is closed-loop and comes from at most
// Generators() goroutines; a result records how many a workload ran.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// Options selects what one RunWorkload call measures.
type Options struct {
	// Seed drives every topology, flow list and schedule.
	Seed int64
	// Windows is the number of one-second windows to measure; 0 means
	// RunSeconds.
	Windows int
	// Trace runs the traced pass. TraceFile, when set, receives the
	// spans as JSON.
	Trace     bool
	TraceFile string

	// window is the window length and setups the number of fresh builds
	// behind setup_s. Both are fixed for real runs (one second; see
	// fleetSetups); only this package's tests shorten them.
	window time.Duration
	setups int
}

// run is the state shared by a workload's phases.
type run struct {
	o    Options
	res  *WorkloadResult
	chk  checker
	tr   *Trace
	wins []window
	// setups are the fresh builds' set-up times in seconds.
	setups  []float64
	started time.Time
	// spanCost is what a span adds to the time it reports; post, when
	// set, derives further per-layer metrics from the spans' times.
	spanCost float64
	post     func(by map[string][]float64)
}

// RunWorkload measures one workload and returns its result. An error
// means the workload could not run at all; failed deliveries and
// violated checks are reported in the result instead.
func RunWorkload(name string, o Options) (*WorkloadResult, error) {
	if o.Windows <= 0 {
		o.Windows = RunSeconds
	}
	if o.window <= 0 {
		o.window = time.Second
	}
	r := &run{
		o:       o,
		started: time.Now(),
		res: &WorkloadResult{
			Workload: name, Seed: o.Seed, Traced: o.Trace, Windows: o.Windows,
			Metrics: map[string]Value{},
		},
	}
	if o.Trace {
		r.tr = NewTrace()
		r.res.Layers = map[string]Value{}
		r.spanCost = SpanCost(r.tr.Recorder(512))
	}
	var err error
	switch name {
	case FleetWarm, FleetBurst, FleetCold:
		err = r.fleet(name)
	case Churn:
		err = r.churn()
	case ColdStart:
		err = r.coldStart()
	case LiveUDP:
		err = r.liveUDP()
	default:
		err = fmt.Errorf("bench: unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return r.res, nil
}

// Set-up is repeated on fresh worlds and its median reported. The count
// is a constant of the workload, so that what a run builds, and with it
// the resident-set high-water mark, does not depend on how fast the
// machine is: five builds where one takes a few hundred milliseconds,
// 25 where it takes a few, because five builds that short give no
// steady median. cold_start derives its count from the windows.
const (
	fleetSetups = 5
	smallSetups = 25
)

// builds is how many fresh builds a workload that is due n makes: n,
// unless a test asked for fewer.
func (r *run) builds(n int) int {
	if r.o.setups > 0 {
		return r.o.setups
	}
	return n
}

// rng returns a generator freshly seeded with the run's seed. Every
// generated input takes its own, so that none depends on how much
// another drew.
func (r *run) rng() *rand.Rand { return rand.New(rand.NewSource(r.o.Seed)) }

// freshBuild times one fresh set-up: setup builds the world, registers,
// provisions and warms up, whatever the workload needs before it can
// measure. The previous world must be unreachable by now; collecting it
// first keeps both the timing and the resident-set high-water mark free
// of the last build's garbage.
func (r *run) freshBuild(setup func() error) error {
	runtime.GC()
	t0 := time.Now()
	if err := setup(); err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	return nil
}

// liveHeap files what the process retains once the windows are over.
// world is whatever the workload measured on: it must still be
// reachable when the heap is read.
func (r *run) liveHeap(world any) {
	r.set("live_heap_mb", Value{Value: liveHeapMB()})
	runtime.KeepAlive(world)
}

// traced says whether window i of a pass records spans: a traced pass
// alternates, so the untraced windows beside the traced ones give the
// tracing overhead under the same machine conditions.
func (r *run) traced(i int) bool { return r.o.Trace && i%2 == 1 }

// measure runs one window and files it.
func (r *run) measure(traced bool, gens ...generator) window {
	if len(gens) > r.res.Generators {
		r.res.Generators = len(gens)
	}
	w := runWindow(r.o.window, gens...)
	w.traced = traced
	r.wins = append(r.wins, w)
	return w
}

// set files an end-to-end metric, if the workload is one that reports
// it.
func (r *run) set(name string, v Value) {
	m, ok := FindEndToEnd(name)
	if !ok {
		panic("bench: unknown end-to-end metric " + name)
	}
	if !m.ReportedOn(r.res.Workload) {
		return
	}
	v.Unit = m.Unit
	r.res.Metrics[name] = v
}

// layer files a per-layer metric.
func (r *run) layer(name string, value float64, n int) {
	for _, m := range PerLayer {
		if m.Name == name {
			r.res.Layers[name] = Value{Value: value, Unit: m.Unit, N: n}
			return
		}
	}
	panic("bench: unknown per-layer metric " + name)
}

func distValue(d Dist) Value { return Value{Value: d.Median, Q1: d.Q1, Q3: d.Q3, N: d.N} }

// rates files the per-packet metrics from the untraced windows among
// ws: the median over windows of delivered packets per second, process
// CPU per packet and allocations per packet.
func (r *run) rates(ws []window) {
	var pps, whole, cpu, allocs []float64
	for _, w := range ws {
		if w.traced || w.delivered == 0 {
			continue
		}
		n := float64(w.delivered)
		pps = append(pps, w.pps())
		whole = append(whole, w.totalPPS())
		cpu = append(cpu, float64(w.cpu.Microseconds())/n)
		allocs = append(allocs, float64(w.mallocs)/n)
	}
	v := distValue(Summarize(pps))
	v.Whole = Median(whole)
	r.set("delivered_pps", v)
	if r.o.Trace && v.Value > 0 && v.Value != v.Whole {
		// Only the workloads that keep slices have the two apart.
		r.layer("bench.disturbed_frac", 1-v.Whole/v.Value, len(pps))
	}
	r.set("cpu_us_per_pkt", distValue(Summarize(cpu)))
	r.set("allocs_per_pkt", distValue(Summarize(allocs)))
}

// overhead files bench.trace_overhead_frac from the traced and the
// untraced windows among ws.
func (r *run) overhead(ws []window) {
	if !r.o.Trace {
		return
	}
	var on, off []float64
	for _, w := range ws {
		if w.traced {
			on = append(on, w.pps())
		} else {
			off = append(off, w.pps())
		}
	}
	if len(on) == 0 || len(off) == 0 || Median(off) == 0 {
		return
	}
	r.layer("bench.trace_overhead_frac", 1-Median(on)/Median(off), len(on))
}

// finish files what every workload reports the same way and closes the
// result.
func (r *run) finish() error {
	res := r.res
	var all tally
	for _, w := range r.wins {
		all.add(w.tally)
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	if res.Attempted == 0 {
		return fmt.Errorf("bench: nothing was attempted")
	}
	r.set("failed_frac", Value{Value: float64(res.Failed) / float64(res.Attempted), N: int(res.Attempted)})
	// A build is too long to dodge the machine's disturbances, which only
	// ever add time: the lower quartile of the fresh builds, not their
	// median, is what set-up takes.
	setups := Summarize(r.setups)
	r.set("setup_s", Value{Value: setups.Q1, Q1: setups.Q1, Q3: setups.Q3, N: setups.N})
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", Value{Value: rss})

	if r.tr != nil {
		spans := r.tr.Spans()
		r.layersFromSpans(spans)
		res.SelfMS = map[string]float64{}
		self := SelfTimes(spans)
		for _, s := range spans {
			res.SelfMS[s.Layer] += float64(self[s.ID]) / 1e6
		}
		res.SpansDropped = r.tr.Dropped()
		if r.o.TraceFile != "" {
			if err := WriteSpans(r.o.TraceFile, spans); err != nil {
				return err
			}
			res.TraceFile = r.o.TraceFile
		}
	}
	if res.Failed > 0 {
		r.chk.failf("%d of %d deliveries failed, the first: %s", res.Failed, res.Attempted, all.cause)
	}
	res.Violations = r.chk.violations
	res.Correct = r.chk.count == 0
	res.WallSeconds = time.Since(r.started).Seconds()
	return nil
}
