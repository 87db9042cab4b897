package bench

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tally is what one generator goroutine counted in one window, and why
// its first failed delivery failed.
type tally struct {
	attempted, delivered, failed uint64
	cause                        string
	// slices holds one value per closed slice (see slice); sliceAt,
	// sliceDone and sliceKind are where and what the open slice is.
	slices    []sliceTime
	sliceAt   time.Time
	sliceDone uint64
	sliceKind int
}

// sliceTime is one slice's nanoseconds per delivered packet, and which
// of the loop's recurring stretches of work it covered.
type sliceTime struct {
	kind int
	ns   float64
}

// sliceCap bounds the slices one generator keeps per window; the
// busiest, fleet_burst, makes about 20 000.
const sliceCap = 1 << 15

// slice closes a slice and opens the next: a few tens of microseconds
// of the generator's loop, short enough that most slices run without
// the machine disturbing them (the sandbox's disturbances come in
// bursts of a fraction of a millisecond to tens of milliseconds). A
// generator calls it between operations, each time it has done about
// that much work; the packets delivered since the last call, over the
// time they took, are the closed slice's value. kind says which stretch
// of the generator's recurring work the slice now opened will cover: a
// loop over a fixed flow list passes the position in the list, so that
// slices over the same flows, which do the same work, are compared with
// each other; a loop that never repeats passes 0. A window's rate is
// taken from the undisturbed slices of each kind (undisturbedNS), not
// from the window's total.
func (t *tally) slice(kind int) {
	now := time.Now()
	if n := t.delivered - t.sliceDone; n > 0 && !t.sliceAt.IsZero() && len(t.slices) < cap(t.slices) {
		t.slices = append(t.slices, sliceTime{t.sliceKind, float64(now.Sub(t.sliceAt)) / float64(n)})
	}
	t.sliceAt, t.sliceDone, t.sliceKind = now, t.delivered, kind
}

// minSlices is the fewest slices a window's rate is taken from.
const minSlices = 8

// undisturbedNS is the nanoseconds per packet the slices stand for: the
// undisturbed time (Undisturbed) of each kind, averaged over the kinds,
// which each cover as many packets. Zero when there are too few slices
// to tell.
func undisturbedNS(slices []sliceTime) float64 {
	if len(slices) < minSlices {
		return 0
	}
	byKind := map[int][]float64{}
	for _, s := range slices {
		byKind[s.kind] = append(byKind[s.kind], s.ns)
	}
	var sum float64
	for _, ns := range byKind {
		sum += Undisturbed(ns)
	}
	return sum / float64(len(byKind))
}

// fail counts n failed deliveries: err is what the call returned, nil
// when it returned a wrong delivery.
func (t *tally) fail(n uint64, err error) {
	t.failed += n
	if t.cause == "" {
		t.cause = "wrong delivery"
		if err != nil {
			t.cause = err.Error()
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.delivered += o.delivered
	t.failed += o.failed
	if t.cause == "" {
		t.cause = o.cause
	}
}

// generator is a closed-loop load source: it issues one operation,
// waits for it to complete, counts it, and repeats until stop is set.
type generator func(stop *atomic.Bool, t *tally)

// window is one timed window's measurement.
type window struct {
	tally
	elapsed time.Duration
	cpu     time.Duration
	mallocs uint64
	traced  bool
	// sliceNS is the nanoseconds per packet of the window's undisturbed
	// slices, over the gens generators that kept any; zero when there
	// were too few.
	sliceNS float64
	gens    int
}

// pps is the window's delivery rate: the rate of its undisturbed
// slices, times the generators that ran side by side. A window without
// slices (a workload whose work does not come in short equal pieces) has
// only its total to go by.
func (w window) pps() float64 {
	if w.sliceNS == 0 {
		return w.totalPPS()
	}
	return float64(w.gens) * 1e9 / w.sliceNS
}

// totalPPS is everything the window delivered over its whole length,
// disturbances included.
func (w window) totalPPS() float64 { return float64(w.delivered) / w.elapsed.Seconds() }

// runWindow runs the generators side by side for dur and measures what
// the process did meanwhile. The caller keeps len(gens) within
// Generators().
func runWindow(dur time.Duration, gens ...generator) window {
	var stop atomic.Bool
	tallies := make([]tally, len(gens))
	for i := range tallies {
		tallies[i].slices = make([]sliceTime, 0, sliceCap)
	}
	var wg sync.WaitGroup
	mallocs0 := mallocCount()
	cpu0 := cpuTime()
	start := time.Now()
	for i, g := range gens {
		wg.Add(1)
		go func(g generator, t *tally) {
			defer wg.Done()
			g(&stop, t)
		}(g, &tallies[i])
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	w.cpu = cpuTime() - cpu0
	w.mallocs = mallocCount() - mallocs0
	var slices []sliceTime
	for i := range tallies {
		t := &tallies[i]
		if len(t.slices) > 0 {
			w.gens++
			slices = append(slices, t.slices...)
		}
		t.slices = nil
		w.add(*t)
	}
	w.sliceNS = undisturbedNS(slices)
	return w
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocCount is the number of heap objects allocated so far.
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB is the heap still in use after collection: what the world,
// its caches and the bench's own buffers retain, without the garbage a
// run happens to hold when it ends. It collects twice, because what a
// sync.Pool held survives the first collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(buf, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(string(f[1]), 64)
		if err != nil {
			return 0, fmt.Errorf("bench: VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}

// sampler pools per-operation latencies, in microseconds, in a buffer
// allocated up front; samples beyond its capacity are not kept.
type sampler struct{ us []float64 }

func newSampler(capacity int) *sampler { return &sampler{us: make([]float64, 0, capacity)} }

func (s *sampler) add(d time.Duration) {
	if len(s.us) < cap(s.us) {
		s.us = append(s.us, float64(d)/1e3)
	}
}

// checker collects correctness violations. Each one fails the run; the
// first few are kept verbatim for the report. Only the goroutine that
// runs the workload files violations; generators count failed
// deliveries in their tallies instead.
type checker struct {
	violations []string
	count      int
}

func (c *checker) failf(format string, args ...any) {
	c.count++
	if len(c.violations) < 8 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}
