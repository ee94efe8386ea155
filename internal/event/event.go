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

// key is one calendar entry: the (time, seq) sort key and the index of the
// event's payload in the queue's slot slab. It holds no pointers, so moving
// keys costs the garbage collector nothing.
type key struct {
	at   Time
	seq  uint64
	slot int32
}

// before is the calendar's total order: time, then FIFO sequence. It has no
// ties, so the execution order is unique and independent of which lane or
// heap position holds a key.
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

// maxLanes bounds the calendar's delay lanes. Every event a multicast run
// schedules by delay uses one of a handful of constant delays (software
// startup, receive overhead, per-hop header advance, tail drain), so a few
// lanes take every push of the figure sweeps. Only relative keys (After,
// AfterOp) take lanes: an absolute time (At, AtOp) such as a traffic
// arrival is in general a fresh delay from now, and a batch of them
// scheduled up front would claim every lane and push the run's fixed
// delays into the heap until they drained.
const maxLanes = 8

// lane is a FIFO ring of keys that were all scheduled with one delay. The
// clock never runs backwards and sequence numbers only grow, so keys
// appended at now+delay arrive in (time, seq) order: the lane is sorted by
// construction and its front is its minimum.
type lane struct {
	delay Time
	head  int   // ring index of the front key
	n     int   // pending keys
	ring  []key // power-of-two length
}

// push appends k, doubling the ring (front first) when it is full.
func (l *lane) push(k key) {
	if l.n == len(l.ring) {
		ring := make([]key, max(16, 2*len(l.ring)))
		copied := copy(ring, l.ring[l.head:])
		copy(ring[copied:], l.ring[:l.head])
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = k
	l.n++
}

// Queue is a single-threaded event calendar. The zero value is ready to use.
//
// The calendar keeps pointer-free keys in up to maxLanes per-delay FIFO
// lanes, with a typed binary min-heap (sifted by moving a hole rather than
// swapping) for absolute-time keys and relative keys whose delay finds no
// lane. The next event is the smallest key among the lane fronts and the
// heap top; since keys are totally ordered, this is exactly the order one
// heap of all keys would give. Each key names a slot in a payload slab whose vacated slots are
// recycled through a free list. Pushing allocates nothing once the slices
// have grown, and their capacity survives Reset for pooled reuse across
// simulation runs.
type Queue struct {
	lanes    [maxLanes]lane
	nlanes   int // lanes assigned a delay since the last Reset
	h        []key
	pending  int // keys in lanes and heap together
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

// push stores p in a free slot and files its key. A relative key goes to
// the lane holding its delay, else to a drained or unassigned lane, else
// to the heap; an absolute key goes to the heap.
func (q *Queue) push(at Time, p payload, relative bool) {
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
	q.pending++
	if !relative {
		q.pushHeap(k)
		return
	}
	d := at - q.now
	free := -1
	for i := range q.lanes[:q.nlanes] {
		l := &q.lanes[i]
		if l.delay == d {
			l.push(k)
			return
		}
		if l.n == 0 && free < 0 {
			free = i
		}
	}
	if free < 0 && q.nlanes < maxLanes {
		free = q.nlanes
		q.nlanes++
	}
	if free >= 0 {
		l := &q.lanes[free]
		l.delay = d
		l.push(k)
		return
	}
	q.pushHeap(k)
}

// pushHeap inserts k into the overflow heap, sifting the hole up from the
// end of the heap to the key's place.
func (q *Queue) pushHeap(k key) {
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

// next returns the earliest pending key and where it lives: the front of
// lane from, or the heap top when from < 0. The calendar must not be empty.
func (q *Queue) next() (k key, from int) {
	from = -1
	have := len(q.h) > 0
	if have {
		k = q.h[0]
	}
	for i := range q.lanes[:q.nlanes] {
		l := &q.lanes[i]
		if l.n == 0 {
			continue
		}
		if f := l.ring[l.head]; !have || f.before(k) {
			k, from, have = f, i, true
		}
	}
	return k, from
}

// take removes the key next returned from its lane or the heap and frees
// its slot, which is zeroed so the slab does not retain the event's closure
// or Op.
func (q *Queue) take(k key, from int) payload {
	if from >= 0 {
		l := &q.lanes[from]
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
	} else {
		q.popHeap()
	}
	q.pending--
	p := q.slots[k.slot]
	q.slots[k.slot] = payload{}
	q.free = append(q.free, k.slot)
	return p
}

// popHeap removes the heap top, sifting the hole at the root down to where
// the last key belongs.
func (q *Queue) popHeap() {
	n := len(q.h) - 1
	last := q.h[n]
	q.h = q.h[:n]
	if n == 0 {
		return
	}
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
func (q *Queue) Len() int { return q.pending }

// schedule validates t and inserts one calendar entry; relative says
// whether it was scheduled by delay (After, AfterOp) or at an absolute
// time (At, AtOp).
func (q *Queue) schedule(t Time, op Op, fn func(), relative bool) {
	if t < q.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, q.now))
	}
	q.seq++
	q.push(t, payload{op: op, fn: fn}, relative)
	if q.mDepth != nil {
		q.mDepth.SetMax(int64(q.pending))
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently corrupt causality.
func (q *Queue) At(t Time, fn func()) { q.schedule(t, nil, fn, false) }

// After schedules fn to run d after the current time.
func (q *Queue) After(d Time, fn func()) {
	if d < 0 {
		panic("event: negative delay")
	}
	q.schedule(q.now+d, nil, fn, true)
}

// AtOp schedules op to run at absolute time t without allocating.
func (q *Queue) AtOp(t Time, op Op) { q.schedule(t, op, nil, false) }

// AfterOp schedules op to run d after the current time without allocating.
func (q *Queue) AfterOp(d Time, op Op) {
	if d < 0 {
		panic("event: negative delay")
	}
	q.schedule(q.now+d, op, nil, true)
}

// Step runs the single earliest event, advancing the clock. It reports
// whether an event was available.
func (q *Queue) Step() bool {
	if q.pending == 0 {
		return false
	}
	q.exec(q.next())
	return true
}

// exec removes the key next returned, advances the clock to it and runs its
// event.
func (q *Queue) exec(k key, from int) {
	p := q.take(k, from)
	q.now = k.at
	if q.mSteps != nil {
		q.mSteps.Inc()
	}
	if p.op != nil {
		p.op.RunEvent()
	} else {
		p.fn()
	}
}

// Reset returns the queue to its zero state while keeping the capacity of
// the lanes, the heap, the slot slab and the free list, so pooled runs
// reuse them. The slab is cleared (a watchdog-aborted run leaves events
// behind; their references must not outlive the run), and instruments and
// the diagnoser are detached — reattach them per run.
func (q *Queue) Reset() {
	clear(q.slots)
	for i := range q.lanes[:q.nlanes] {
		q.lanes[i].head, q.lanes[i].n = 0, 0
	}
	q.nlanes, q.pending = 0, 0
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
	d := &Diagnostic{Reason: reason, Steps: steps, Now: q.now, Pending: q.pending}
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
	for q.pending > 0 {
		k, from := q.next()
		if maxTime > 0 && k.at > maxTime {
			return q.now, q.diag(fmt.Sprintf("time budget %s exhausted", maxTime.Micros()), steps)
		}
		q.exec(k, from)
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
	for q.pending > 0 {
		k, from := q.next()
		if k.at > deadline {
			break
		}
		q.exec(k, from)
	}
	if q.now < deadline {
		q.now = deadline
	}
}
