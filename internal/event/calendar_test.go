package event

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// stamp identifies one scheduled event: its time and its scheduling order.
type stamp struct {
	at Time
	id int
}

// calendar drives a Queue through every scheduling entry point and records
// the order events run in. The oracle is the (time, scheduling order) sort
// of everything scheduled; it also tracks which events are still pending,
// so peeks and bounded steps can be checked as they happen.
type calendar struct {
	tb       testing.TB
	q        Queue
	want     []stamp // in scheduling order: want[i].id == i
	got      []stamp
	done     []bool
	relative []bool // by id: scheduled with After or AfterOp

	// checkFiling makes observe check where each pending key waits:
	// relative keys in a lane, absolute keys in the heap.
	checkFiling bool
	relInHeap   int // most relative keys seen in the heap at once
	absInLanes  int // most absolute keys seen in the lanes at once

	heapPeak   int           // largest overflow heap seen
	laneDelays map[Time]bool // delays the lanes have held
	peak       int           // largest pending count seen
}

func newCalendar(tb testing.TB) *calendar {
	return &calendar{tb: tb, laneDelays: map[Time]bool{}}
}

// stampOp is the Op form of a recorded event.
type stampOp struct {
	c    *calendar
	s    stamp
	then func()
}

func (o *stampOp) RunEvent() { o.c.ran(o.s, o.then) }

// schedule records an event at absolute time at and files it through one
// of the four entry points (Op or closure, absolute or relative). then, if
// non-nil, runs inside the event, after it is recorded.
func (c *calendar) schedule(at Time, op, relative bool, then func()) {
	s := stamp{at, len(c.want)}
	c.want = append(c.want, s)
	c.done = append(c.done, false)
	c.relative = append(c.relative, relative)
	switch {
	case op && relative:
		c.q.AfterOp(at-c.q.Now(), &stampOp{c, s, then})
	case op:
		c.q.AtOp(at, &stampOp{c, s, then})
	case relative:
		c.q.After(at-c.q.Now(), func() { c.ran(s, then) })
	default:
		c.q.At(at, func() { c.ran(s, then) })
	}
	c.observe()
}

func (c *calendar) ran(s stamp, then func()) {
	c.peak = max(c.peak, c.q.Len()+1)
	c.got = append(c.got, s)
	c.done[s.id] = true
	if then != nil {
		then()
	}
	c.observe()
}

// observe samples the calendar's internal state: the overflow heap's size,
// the delays the lanes hold and, with checkFiling, which entry points the
// keys in the heap and the lanes came from. A key's sequence number is
// its scheduling id plus one, since every event goes through schedule.
func (c *calendar) observe() {
	c.heapPeak = max(c.heapPeak, len(c.q.h))
	for _, l := range c.q.lanes[:c.q.nlanes] {
		c.laneDelays[l.delay] = true
	}
	if !c.checkFiling {
		return
	}
	rel, abs := 0, 0
	for _, k := range c.q.h {
		if c.relative[k.seq-1] {
			rel++
		}
	}
	for _, l := range c.q.lanes[:c.q.nlanes] {
		for i := range l.n {
			if !c.relative[l.ring[(l.head+i)&(len(l.ring)-1)].seq-1] {
				abs++
			}
		}
	}
	c.relInHeap, c.absInLanes = max(c.relInHeap, rel), max(c.absInLanes, abs)
}

// next returns the earliest pending event by the oracle.
func (c *calendar) next() (stamp, bool) {
	best, ok := stamp{}, false
	for i, s := range c.want {
		if !c.done[i] && (!ok || s.at < best.at) {
			best, ok = s, true
		}
	}
	return best, ok
}

// checkPeek compares peekTime and Len with the oracle's pending events.
func (c *calendar) checkPeek() {
	c.tb.Helper()
	want, ok := c.next()
	at, got := c.q.peekTime()
	if ok != got || (ok && at != want.at) {
		c.tb.Fatalf("peekTime = (%v, %v), oracle says (%v, %v)", at, got, want.at, ok)
	}
	pending := 0
	for _, d := range c.done {
		if !d {
			pending++
		}
	}
	if c.q.Len() != pending {
		c.tb.Fatalf("Len = %d, oracle has %d pending", c.q.Len(), pending)
	}
}

// stepIfBefore runs the checked window primitive.
func (c *calendar) stepIfBefore(horizon Time) {
	c.tb.Helper()
	want, ok := c.next()
	before := len(c.got)
	ran := c.q.stepIfBefore(horizon)
	if ran != (ok && want.at < horizon) {
		c.tb.Fatalf("stepIfBefore(%v) ran=%v with earliest pending %v", horizon, ran, want)
	}
	if ran && (len(c.got) != before+1 || c.got[before] != want) {
		c.tb.Fatalf("stepIfBefore(%v) ran %v, want %v", horizon, c.got[before:], want)
	}
}

// runUntil runs the checked RunUntil: everything up to deadline runs and
// the clock ends at least at deadline.
func (c *calendar) runUntil(deadline Time) {
	c.tb.Helper()
	start := c.q.Now()
	c.q.RunUntil(deadline)
	if want := max(start, deadline); c.q.Now() != want {
		c.tb.Fatalf("RunUntil(%v) left Now = %v, want %v", deadline, c.q.Now(), want)
	}
	if s, ok := c.next(); ok && s.at <= deadline {
		c.tb.Fatalf("RunUntil(%v) left %v pending", deadline, s)
	}
}

// finish drains the calendar and compares the execution order with the
// sort oracle.
func (c *calendar) finish() {
	c.tb.Helper()
	c.q.Run()
	want := slices.Clone(c.want)
	slices.SortFunc(want, func(a, b stamp) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.id, b.id)
	})
	if !reflect.DeepEqual(c.got, want) {
		for i := range c.got {
			if c.got[i] != want[i] {
				c.tb.Fatalf("event %d of %d ran as %v, want %v", i, len(want), c.got[i], want[i])
			}
		}
		c.tb.Fatalf("ran %d of %d events", len(c.got), len(want))
	}
	if c.q.Len() != 0 || len(c.q.h) != 0 {
		c.tb.Fatalf("drained calendar reports %d pending, heap %d", c.q.Len(), len(c.q.h))
	}
}

// Events scheduled at random times, many tied, partly from inside handlers
// (so vacated slots are reused while others are pending), run in exactly
// (time, seq) order — whether their keys sit in the delay lanes, the
// overflow heap or both, and whichever entry point scheduled them.
func TestRandomCalendarRunsInTotalOrder(t *testing.T) {
	// spawnTree schedules a random tree of events whose delays draw from
	// delays(now), through a random entry point each.
	spawnTree := func(c *calendar, rng *rand.Rand, roots int, delays func(now Time) []Time) {
		var spawn func(depth int)
		spawn = func(depth int) {
			ds := delays(c.q.Now())
			at := c.q.Now() + ds[rng.Intn(len(ds))]
			c.schedule(at, rng.Intn(2) == 0, rng.Intn(2) == 0, func() {
				for k := rng.Intn(3); depth < 4 && k > 0; k-- {
					spawn(depth + 1)
				}
			})
		}
		for i := 0; i < roots; i++ {
			spawn(0)
		}
	}

	t.Run("lanes-only", func(t *testing.T) {
		// At most maxLanes distinct delays: every relative key rides a
		// lane, and every absolute key waits in the heap.
		delays := []Time{0, 1, 2, 3, 5, 8, 13, 21}
		if len(delays) > maxLanes {
			t.Fatal("more delays than lanes")
		}
		c := newCalendar(t)
		c.checkFiling = true
		spawnTree(c, rand.New(rand.NewSource(5)), 500, func(Time) []Time { return delays })
		c.finish()
		if c.relInHeap != 0 {
			t.Errorf("%d distinct delays put relative keys in the overflow heap (peak %d keys)", len(delays), c.relInHeap)
		}
		if c.absInLanes != 0 {
			t.Errorf("absolute keys rode the lanes (peak %d keys)", c.absInLanes)
		}
		if c.heapPeak == 0 {
			t.Error("no absolute key reached the overflow heap")
		}
		if len(c.q.slots) != c.peak {
			t.Errorf("slab grew to %d slots for at most %d pending events", len(c.q.slots), c.peak)
		}
	})

	t.Run("overflow", func(t *testing.T) {
		// More distinct delays than lanes: the rest go to the heap, and
		// pops merge its top with the lane fronts.
		delays := make([]Time, 20)
		for i := range delays {
			delays[i] = Time(i)
		}
		c := newCalendar(t)
		spawnTree(c, rand.New(rand.NewSource(6)), 500, func(Time) []Time { return delays })
		c.finish()
		if c.heapPeak == 0 {
			t.Error("no key reached the overflow heap")
		}
	})

	t.Run("lanes-reassigned", func(t *testing.T) {
		// Each phase uses maxLanes delays of its own, so the previous
		// phase's lanes drain and are handed to new delays mid-run.
		phases := [][]Time{
			{0, 2, 4, 6, 8, 10, 12, 14},
			{1, 3, 5, 7, 9, 11, 13, 15},
			{16, 17, 18, 19, 20, 21, 22, 23},
		}
		const phaseLen = 150
		delays := func(now Time) []Time { return phases[min(int(now/phaseLen), len(phases)-1)] }
		c := newCalendar(t)
		rng := rand.New(rand.NewSource(7))
		// A constant population: each event schedules one successor until
		// the last phase ends.
		var spawn func()
		spawn = func() {
			ds := delays(c.q.Now())
			c.schedule(c.q.Now()+ds[rng.Intn(len(ds))], rng.Intn(2) == 0, rng.Intn(2) == 0, func() {
				if c.q.Now() < phaseLen*Time(len(phases)) {
					spawn()
				}
			})
		}
		for i := 0; i < 200; i++ {
			spawn()
		}
		c.finish()
		if got := len(c.laneDelays); got <= maxLanes {
			t.Errorf("lanes held only %d distinct delays; none was reassigned", got)
		}
	})

	t.Run("absolute-and-windowed", func(t *testing.T) {
		// Absolute At calls mixed with AfterOp, driven through RunUntil,
		// peekTime and stepIfBefore as well as Step.
		c := newCalendar(t)
		rng := rand.New(rand.NewSource(8))
		var handler func()
		handler = func() {
			for k := rng.Intn(3); k > 0 && len(c.want) < 3000; k-- {
				if rng.Intn(2) == 0 {
					c.schedule(c.q.Now()+Time(rng.Intn(12)), true, true, handler)
				} else {
					c.schedule(c.q.Now()+Time(rng.Intn(40)), false, false, handler)
				}
			}
		}
		for i := 0; i < 100; i++ {
			c.schedule(Time(rng.Intn(60)), i%2 == 0, false, handler)
		}
		for c.q.Len() > 0 {
			c.checkPeek()
			switch rng.Intn(4) {
			case 0:
				c.q.Step()
			case 1:
				c.stepIfBefore(c.q.Now() + Time(rng.Intn(15)))
			case 2:
				c.runUntil(c.q.Now() + Time(rng.Intn(30)))
			case 3:
				c.schedule(c.q.Now()+Time(rng.Intn(50)), false, false, handler)
			}
		}
		c.checkPeek()
		c.finish()
		if c.heapPeak == 0 {
			t.Error("no key reached the overflow heap")
		}
	})
}

// A Poisson traffic run schedules all its arrivals with At before the
// first step, at as many distinct times. They must not claim the delay
// lanes: the run's relative events, on a few fixed delays, ride lanes from
// the first step on, and the arrivals wait in the heap.
func TestAbsoluteArrivalsLeaveLanesFree(t *testing.T) {
	delays := []Time{0, 7, 30, 90}
	c := newCalendar(t)
	c.checkFiling = true
	rng := rand.New(rand.NewSource(9))
	var relay func()
	relay = func() {
		for k := rng.Intn(3); k > 0 && len(c.want) < 4000; k-- {
			c.schedule(c.q.Now()+delays[rng.Intn(len(delays))], rng.Intn(2) == 0, true, relay)
		}
	}
	const arrivals = 64
	for i := range arrivals {
		c.schedule(Time(50+i*37+i*i), i%2 == 0, false, func() {
			for range 3 {
				c.schedule(c.q.Now()+delays[rng.Intn(len(delays))], rng.Intn(2) == 0, true, relay)
			}
		})
	}
	for _, d := range delays {
		c.schedule(d, false, true, relay)
	}
	if got := len(c.q.h); got != arrivals {
		t.Errorf("heap holds %d keys before the first step, want the %d arrivals", got, arrivals)
	}
	c.finish()
	if c.relInHeap != 0 {
		t.Errorf("relative keys on %d delays reached the heap (peak %d keys)", len(delays), c.relInHeap)
	}
	if c.absInLanes != 0 {
		t.Errorf("arrivals rode the lanes (peak %d keys)", c.absInLanes)
	}
	if len(c.laneDelays) != len(delays) {
		t.Errorf("lanes held %d distinct delays, want %d", len(c.laneDelays), len(delays))
	}
}

// FuzzCalendarOrder runs a byte-coded program of scheduling calls (all four
// entry points, delays 0–31 so lanes and the overflow heap both fill) and
// execution calls (Step, stepIfBefore, RunUntil, peekTime), checking every
// execution call against the oracle and the final order against its sort.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{0, 8, 16, 24, 4, 4, 4, 4})
	f.Add([]byte{1, 9, 17, 25, 33, 41, 49, 57, 65, 73, 81, 89, 7, 4, 5, 44, 6, 100})
	f.Add([]byte{2, 250, 3, 251, 6, 255, 0, 0, 0, 7, 4, 13, 21, 4, 4})
	f.Add([]byte{8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 4, 4, 4, 4, 4, 8, 16, 24})
	f.Fuzz(func(t *testing.T, prog []byte) {
		c := newCalendar(t)
		for _, b := range prog {
			arg := Time(b >> 3)
			now := c.q.Now()
			switch b & 7 {
			case 0:
				c.schedule(now+arg, true, true, nil)
			case 1:
				c.schedule(now+arg, false, true, nil)
			case 2:
				c.schedule(now+arg, true, false, nil)
			case 3:
				c.schedule(now+arg, false, false, nil)
			case 4:
				c.q.Step()
			case 5:
				c.stepIfBefore(now + arg)
			case 6:
				c.runUntil(now + arg)
			case 7:
				c.checkPeek()
			}
		}
		c.finish()
	})
}
