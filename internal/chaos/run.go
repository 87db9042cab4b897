package chaos

import (
	"fmt"
	"slices"
	"strings"
)

// Options configures a chaos run.
type Options struct {
	// Invariants names the invariants to check (see InvariantNames);
	// empty means all of them.
	Invariants []string
	// Shrink enables schedule minimization after a violation.
	Shrink bool

	// apply overrides event application, so the harness's self-test can
	// wire in a deliberately buggy apply. Nil means (*World).Apply.
	apply func(*World, Event)
}

// Violation is one invariant failure, pinned to the schedule position
// that triggered it.
type Violation struct {
	Invariant string
	Step      int
	Event     Event
	Detail    string
	Trace     string
}

func (v *Violation) String() string {
	return fmt.Sprintf("step %d (%s): invariant %q violated: %s", v.Step, v.Event, v.Invariant, v.Detail)
}

// Report is the outcome of one chaos run or replay.
type Report struct {
	Scenario string
	Seed     int64
	Schedule []Event
	// Violation is nil when every event passed every invariant.
	Violation *Violation
	// Shrunk is the minimized reproducing schedule (violations only,
	// and only when Options.Shrink is set).
	Shrunk []Event
	// EventsApplied counts schedule events executed (the full schedule,
	// or up to and including the violating event).
	EventsApplied int
	// Checks counts individual invariant evaluations.
	Checks int
}

// Run generates a seeded schedule against the scenario and replays it
// with invariant checking, shrinking the schedule on violation when
// opts.Shrink is set.
func Run(sc Scenario, seed int64, steps int, opts Options) (*Report, error) {
	w, err := NewWorld(sc)
	if err != nil {
		return nil, err
	}
	schedule := Generate(w, seed, steps)
	rep, err := replayWorld(w, schedule, opts)
	if err != nil {
		return nil, err
	}
	rep.Seed = seed
	if rep.Violation != nil && opts.Shrink {
		shrunk, err := Shrink(sc, schedule, rep.Violation, opts)
		if err != nil {
			return nil, err
		}
		rep.Shrunk = shrunk
	}
	return rep, nil
}

// Replay runs a fixed schedule against a fresh world — the entry point
// for re-running a shrunk reproducer emitted by a previous run.
func Replay(sc Scenario, schedule []Event, opts Options) (*Report, error) {
	w, err := NewWorld(sc)
	if err != nil {
		return nil, err
	}
	return replayWorld(w, schedule, opts)
}

// replayWorld applies the schedule in order, checking every invariant
// after each event, and stops at the first violation.
func replayWorld(w *World, schedule []Event, opts Options) (*Report, error) {
	invs, err := Invariants(opts.Invariants)
	if err != nil {
		return nil, err
	}
	apply := opts.apply
	if apply == nil {
		apply = (*World).Apply
	}
	rep := &Report{Scenario: w.scenario.Name, Schedule: schedule}
	for i, ev := range schedule {
		apply(w, ev)
		rep.EventsApplied++
		ctx := &CheckContext{W: w, Step: i, Event: ev}
		for _, inv := range invs {
			rep.Checks++
			if f := inv.Check(ctx); f != nil {
				rep.Violation = &Violation{
					Invariant: inv.Name(),
					Step:      i,
					Event:     ev,
					Detail:    f.Detail,
					Trace:     f.Trace,
				}
				return rep, nil
			}
		}
	}
	return rep, nil
}

// Shrink minimizes a violating schedule to a short reproducing
// subsequence: first truncate to the violating step (later events are
// irrelevant by construction), then greedily delete chunks — halving
// chunk sizes down to single events — keeping any deletion after which
// a fresh replay still violates the *same* invariant. Tolerant event
// application guarantees every candidate subsequence replays cleanly.
// The result is order-preserving and, at convergence, 1-minimal: no
// single remaining event can be removed.
func Shrink(sc Scenario, schedule []Event, v *Violation, opts Options) ([]Event, error) {
	if v == nil {
		return nil, fmt.Errorf("chaos: Shrink needs a violation to reproduce")
	}
	probe := Options{Invariants: []string{v.Invariant}, apply: opts.apply}
	stillFails := func(events []Event) (bool, error) {
		rep, err := Replay(sc, events, probe)
		if err != nil {
			return false, err
		}
		return rep.Violation != nil, nil
	}

	end := v.Step + 1
	if end > len(schedule) {
		end = len(schedule)
	}
	cur := append([]Event(nil), schedule[:end]...)
	if ok, err := stillFails(cur); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("chaos: violation of %q did not reproduce on replay; schedule is not deterministic", v.Invariant)
	}

	// A pass that removes nothing halves the chunk; one that removes
	// something repeats at the same size. A fruitless single-event pass
	// ends it.
	for chunk := len(cur) / 2; chunk >= 1; {
		removed := false
		for start := 0; start+chunk <= len(cur); {
			cand := slices.Concat(cur[:start], cur[start+chunk:])
			ok, err := stillFails(cand)
			if err != nil {
				return nil, err
			}
			if ok {
				cur = cand
				removed = true
				// Do not advance: the next chunk now starts here.
			} else {
				start += chunk
			}
		}
		if !removed {
			chunk /= 2
		}
	}
	return cur, nil
}

// FormatReport renders a report for human consumption: the verdict, the
// (possibly shrunk) schedule as a replayable Go literal, and any path
// trace captured at the violation.
func FormatReport(rep *Report) string {
	var b strings.Builder
	if rep.Violation == nil {
		fmt.Fprintf(&b, "ok: scenario %s seed %d — %d events, %d invariant checks, no violations\n",
			rep.Scenario, rep.Seed, rep.EventsApplied, rep.Checks)
		return b.String()
	}
	fmt.Fprintf(&b, "VIOLATION: scenario %s seed %d\n", rep.Scenario, rep.Seed)
	fmt.Fprintf(&b, "  %s\n", rep.Violation)
	sched := rep.Shrunk
	label := "shrunk schedule"
	if sched == nil {
		sched = rep.Schedule[:rep.Violation.Step+1]
		label = "schedule prefix (shrinking disabled)"
	}
	fmt.Fprintf(&b, "\n%s (%d events), replayable via chaos.Replay:\n%s\n", label, len(sched), GoLiteral(sched))
	if rep.Violation.Trace != "" {
		fmt.Fprintf(&b, "\npath trace at violation:\n%s", rep.Violation.Trace)
	}
	return b.String()
}
