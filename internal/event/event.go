// Package event provides the discrete-event simulation kernel underlying
// the wormhole network simulator — the role CSIM played for the paper's
// MultiSim tool. Events execute in nondecreasing time order with FIFO
// tie-breaking, making every simulation deterministic.
package event

import (
	"fmt"

	"hypercube/internal/metrics"
)

// Time is simulated time in nanoseconds from the start of the simulation.
type Time int64

// Common durations for readability when building configurations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros renders t as a decimal microsecond count (e.g. "163.84us").
func (t Time) Micros() string {
	return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
}

// Seconds returns t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Op is a pre-bound event: an object that knows how to run itself when its
// time comes. Scheduling an Op (AtOp/AfterOp) allocates nothing — the
// calendar's slot slab stores the two interface words — whereas scheduling a
// closure (At/After) allocates the closure. Simulators on the hot path
// (wormhole's per-hop header advance and tail-drain events, ncube's
// per-send software setup) implement Op on objects they already own.
type Op interface {
	// RunEvent executes the event at its scheduled time.
	RunEvent()
}

// key is one calendar entry as the heap sees it: the (time, seq) sort key
// and the index of the event's payload in the queue's slot slab. It holds
// no pointers, so sifting keys costs the garbage collector nothing.
type key struct {
	at   Time
	seq  uint64
	slot int32
}

// before is the calendar's total order: time, then FIFO sequence. It has no
// ties, so the execution order is unique and independent of the heap shape.
func (a key) before(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// payload is what an entry runs. Exactly one of op and fn is set.
type payload struct {
	op Op
	fn func()
}

// Queue is a single-threaded event calendar. The zero value is ready to use.
//
// The calendar is a typed binary min-heap of pointer-free keys, grown in
// place and sifted by moving a hole rather than swapping. Each key names a
// slot in a payload slab whose vacated slots are recycled through a free
// list. Pushing allocates nothing once the slices have grown, and their
// capacity survives Reset for pooled reuse across simulation runs.
type Queue struct {
	h        []key
	slots    []payload
	free     []int32
	now      Time
	seq      uint64
	diagnose func() string

	// Observability instruments; nil (the default) keeps the hot loop at
	// one pointer check per operation.
	mSteps *metrics.Counter
	mDepth *metrics.Gauge
}

// push stores p in a free slot and inserts its key, sifting the hole up
// from the end of the heap to the key's place.
func (q *Queue) push(at Time, p payload) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slots[slot] = p
	} else {
		slot = int32(len(q.slots))
		q.slots = append(q.slots, p)
	}
	k := key{at: at, seq: q.seq, slot: slot}
	q.h = append(q.h, k)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(q.h[parent]) {
			break
		}
		q.h[i] = q.h[parent]
		i = parent
	}
	q.h[i] = k
}

// pop removes the earliest entry and returns its time and payload. The
// vacated slot is zeroed, so the slab does not retain the event's closure
// or Op, and goes on the free list.
func (q *Queue) pop() (Time, payload) {
	top := q.h[0]
	n := len(q.h) - 1
	last := q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		// Sift the hole at the root down to where last belongs.
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			min := l
			if r := l + 1; r < n && q.h[r].before(q.h[l]) {
				min = r
			}
			if !q.h[min].before(last) {
				break
			}
			q.h[i] = q.h[min]
			i = min
		}
		q.h[i] = last
	}
	p := q.slots[top.slot]
	q.slots[top.slot] = payload{}
	q.free = append(q.free, top.slot)
	return top.at, p
}

// SetMetrics wires the queue into a metrics registry: every executed event
// increments "event_steps" and the calendar's peak length lands in
// "event_queue_depth_max". A nil registry disables instrumentation.
func (q *Queue) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		q.mSteps, q.mDepth = nil, nil
		return
	}
	q.mSteps = reg.Counter("event_steps")
	q.mDepth = reg.Gauge("event_queue_depth_max")
}

// Now returns the current simulated time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// schedule validates t and inserts one calendar entry.
func (q *Queue) schedule(t Time, op Op, fn func()) {
	if t < q.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, q.now))
	}
	q.seq++
	q.push(t, payload{op: op, fn: fn})
	if q.mDepth != nil {
		q.mDepth.SetMax(int64(len(q.h)))
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently corrupt causality.
func (q *Queue) At(t Time, fn func()) { q.schedule(t, nil, fn) }

// After schedules fn to run d after the current time.
func (q *Queue) After(d Time, fn func()) {
	if d < 0 {
		panic("event: negative delay")
	}
	q.schedule(q.now+d, nil, fn)
}

// AtOp schedules op to run at absolute time t without allocating.
func (q *Queue) AtOp(t Time, op Op) { q.schedule(t, op, nil) }

// AfterOp schedules op to run d after the current time without allocating.
func (q *Queue) AfterOp(d Time, op Op) {
	if d < 0 {
		panic("event: negative delay")
	}
	q.schedule(q.now+d, op, nil)
}

// Step runs the single earliest event, advancing the clock. It reports
// whether an event was available.
func (q *Queue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	at, p := q.pop()
	q.now = at
	if q.mSteps != nil {
		q.mSteps.Inc()
	}
	if p.op != nil {
		p.op.RunEvent()
	} else {
		p.fn()
	}
	return true
}

// peekTime returns the earliest pending event time, if any.
func (q *Queue) peekTime() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// stepIfBefore runs the earliest event only if it lies strictly before
// horizon, reporting whether one ran. This is the window primitive of the
// parallel executor: each logical process drains exactly its safe window.
func (q *Queue) stepIfBefore(horizon Time) bool {
	if len(q.h) == 0 || q.h[0].at >= horizon {
		return false
	}
	return q.Step()
}

// Reset returns the queue to its zero state while keeping the capacity of
// the heap, the slot slab and the free list, so pooled runs reuse them. The
// slab is cleared (a watchdog-aborted run leaves events behind; their
// references must not outlive the run), and instruments and the diagnoser
// are detached — reattach them per run.
func (q *Queue) Reset() {
	clear(q.slots)
	q.h, q.slots, q.free = q.h[:0], q.slots[:0], q.free[:0]
	q.now, q.seq = 0, 0
	q.diagnose = nil
	q.mSteps, q.mDepth = nil, nil
}

// Run executes events until the calendar is empty and returns the final
// simulated time.
func (q *Queue) Run() Time {
	for q.Step() {
	}
	return q.now
}

// Watchdog defaults for RunBudget.
const (
	// DefaultMaxSteps bounds a budgeted run when the caller passes
	// maxSteps <= 0: generous for every legitimate simulation in this
	// repository (the 12-cube broadcast soak executes ~10^5 events), yet
	// it converts an accidentally unbounded event loop into a diagnostic
	// within seconds instead of hanging CI forever.
	DefaultMaxSteps = 1 << 26
	// NoProgressLimit is the number of consecutive events executed at a
	// single simulated instant before RunBudget declares a livelock: real
	// schedules always advance the clock (channel crossings and software
	// overheads take time), so millions of same-instant events mean a
	// zero-delay event cycle.
	NoProgressLimit = 1 << 22
)

// Diagnostic describes a watchdog abort: which budget tripped, where the
// simulation stood, and — when a diagnoser is registered — a snapshot of
// the stalled resources (e.g. the network's held channels).
type Diagnostic struct {
	// Reason names the exhausted budget.
	Reason string
	// Steps is the number of events executed by this run.
	Steps int
	// Now is the simulated time at the abort.
	Now Time
	// Pending is the number of events still queued.
	Pending int
	// Detail is the diagnoser's snapshot ("" when none is registered).
	Detail string
}

func (d *Diagnostic) Error() string {
	s := fmt.Sprintf("event: watchdog: %s after %d steps at %s (%d events pending)",
		d.Reason, d.Steps, d.Now.Micros(), d.Pending)
	if d.Detail != "" {
		s += "\n" + d.Detail
	}
	return s
}

// SetDiagnoser registers a snapshot function whose output is attached to
// watchdog Diagnostics (nil disables). Simulators register their resource
// state here — e.g. wormhole.Network's held-channel dump — so a budget trip
// explains *what* is wedged, not just that something is.
func (q *Queue) SetDiagnoser(fn func() string) { q.diagnose = fn }

func (q *Queue) diag(reason string, steps int) *Diagnostic {
	d := &Diagnostic{Reason: reason, Steps: steps, Now: q.now, Pending: len(q.h)}
	if q.diagnose != nil {
		d.Detail = q.diagnose()
	}
	return d
}

// RunBudget executes events until the calendar is empty, like Run, but
// under a watchdog: at most maxSteps events (<= 0 selects
// DefaultMaxSteps), no event beyond maxTime (<= 0 means unbounded), and no
// more than NoProgressLimit consecutive events at one simulated instant.
// Exceeding any budget returns the current time and a *Diagnostic instead
// of spinning or stalling forever.
func (q *Queue) RunBudget(maxSteps int, maxTime Time) (Time, error) {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	steps, sameTime := 0, 0
	last := q.now
	for len(q.h) > 0 {
		if maxTime > 0 && q.h[0].at > maxTime {
			return q.now, q.diag(fmt.Sprintf("time budget %s exhausted", maxTime.Micros()), steps)
		}
		q.Step()
		steps++
		if q.now == last {
			sameTime++
			if sameTime >= NoProgressLimit {
				return q.now, q.diag(fmt.Sprintf("no progress: %d events without advancing time", sameTime), steps)
			}
		} else {
			sameTime = 0
			last = q.now
		}
		if steps >= maxSteps {
			return q.now, q.diag(fmt.Sprintf("step budget %d exhausted", maxSteps), steps)
		}
	}
	return q.now, nil
}

// MustRun is RunBudget for call sites where exceeding the budget can only
// mean a simulator bug: it panics with the Diagnostic. Every internal
// simulation loop runs under it so no bug can hang the process.
func (q *Queue) MustRun(maxSteps int, maxTime Time) Time {
	t, err := q.RunBudget(maxSteps, maxTime)
	if err != nil {
		panic(err)
	}
	return t
}

// RunUntil executes events with time <= deadline; later events stay queued.
// The clock is left at min(deadline, last executed event time >= now).
func (q *Queue) RunUntil(deadline Time) {
	for len(q.h) > 0 && q.h[0].at <= deadline {
		q.Step()
	}
	if q.now < deadline {
		q.now = deadline
	}
}
