package event

import (
	"reflect"
	"strings"
	"testing"
)

func TestRunOrdersByTime(t *testing.T) {
	var q Queue
	var got []int
	q.At(30, func() { got = append(got, 3) })
	q.At(10, func() { got = append(got, 1) })
	q.At(20, func() { got = append(got, 2) })
	end := q.Run()
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("order = %v", got)
	}
	if end != 30 {
		t.Errorf("end = %v", end)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(5, func() { got = append(got, i) })
	}
	q.MustRun(1000, 0)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Errorf("tie order = %v", got)
	}
}

func TestAfterAndNow(t *testing.T) {
	var q Queue
	var sample Time
	q.After(100, func() {
		if q.Now() != 100 {
			t.Errorf("Now inside event = %v", q.Now())
		}
		q.After(50, func() { sample = q.Now() })
	})
	q.MustRun(1000, 0)
	if sample != 150 {
		t.Errorf("nested After fired at %v", sample)
	}
}

func TestSchedulingFromHandlers(t *testing.T) {
	var q Queue
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			q.After(10, tick)
		}
	}
	q.After(10, tick)
	end := q.MustRun(1000, 0)
	if count != 5 || end != 50 {
		t.Errorf("count=%d end=%v", count, end)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var q Queue
	q.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("past scheduling did not panic")
			}
		}()
		q.At(50, func() {})
	})
	q.MustRun(1000, 0)
}

func TestNegativeDelayPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	q.After(-1, func() {})
}

func TestStepEmpty(t *testing.T) {
	var q Queue
	if q.Step() {
		t.Error("Step on empty queue returned true")
	}
	if q.Len() != 0 || q.Now() != 0 {
		t.Error("empty queue state wrong")
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var got []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		q.At(at, func() { got = append(got, at) })
	}
	q.RunUntil(25)
	if !reflect.DeepEqual(got, []Time{10, 20}) {
		t.Errorf("ran %v", got)
	}
	if q.Now() != 25 {
		t.Errorf("Now = %v, want 25", q.Now())
	}
	if q.Len() != 2 {
		t.Errorf("pending = %d", q.Len())
	}
	q.MustRun(1000, 0)
	if !reflect.DeepEqual(got, []Time{10, 20, 30, 40}) {
		t.Errorf("final %v", got)
	}
}

// countOp is a minimal pre-bound event for the Op scheduling paths.
type countOp struct {
	q     *Queue
	fired []Time
}

func (c *countOp) RunEvent() { c.fired = append(c.fired, c.q.Now()) }

func TestOpSchedulingInterleavesWithClosures(t *testing.T) {
	var q Queue
	op := &countOp{q: &q}
	var closures []Time
	q.AtOp(20, op)
	q.At(10, func() { closures = append(closures, q.Now()) })
	q.AfterOp(30, op)
	q.After(25, func() { closures = append(closures, q.Now()) })
	q.MustRun(100, 0)
	if !reflect.DeepEqual(op.fired, []Time{20, 30}) {
		t.Errorf("op fired at %v", op.fired)
	}
	if !reflect.DeepEqual(closures, []Time{10, 25}) {
		t.Errorf("closures fired at %v", closures)
	}
}

func TestOpFIFOTieBreakWithClosures(t *testing.T) {
	// Ops and closures scheduled at one instant run in scheduling order.
	var q Queue
	var got []int
	rec := &orderOp{sink: &got, tag: 1}
	q.At(5, func() { got = append(got, 0) })
	q.AtOp(5, rec)
	q.At(5, func() { got = append(got, 2) })
	q.MustRun(100, 0)
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("tie order = %v", got)
	}
}

type orderOp struct {
	sink *[]int
	tag  int
}

func (o *orderOp) RunEvent() { *o.sink = append(*o.sink, o.tag) }

func TestOpNegativeDelayPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Error("negative AfterOp delay did not panic")
		}
	}()
	q.AfterOp(-1, &countOp{q: &q})
}

func TestResetClearsStateKeepsCapacity(t *testing.T) {
	var q Queue
	for i := Time(1); i <= 100; i++ {
		q.At(i, func() {})
	}
	q.RunUntil(50) // leave half the calendar pending
	if q.Len() == 0 || q.Now() == 0 {
		t.Fatal("setup failed")
	}
	q.Reset()
	if q.Len() != 0 || q.Now() != 0 {
		t.Errorf("after Reset: len=%d now=%v", q.Len(), q.Now())
	}
	// The payload slab keeps its capacity but no event's references.
	if cap(q.slots) == 0 || len(q.free) != 0 {
		t.Errorf("after Reset: slab cap=%d free=%d", cap(q.slots), len(q.free))
	}
	for i, p := range q.slots[:cap(q.slots)] {
		if p.op != nil || p.fn != nil {
			t.Fatalf("after Reset: slot %d still holds an event", i)
		}
	}
	// The queue is immediately reusable and behaves like a fresh one.
	ran := 0
	q.At(7, func() { ran++ })
	if end := q.MustRun(100, 0); end != 7 || ran != 1 {
		t.Errorf("reused queue: end=%v ran=%d", end, ran)
	}
}

func TestTimeFormatting(t *testing.T) {
	if (163840 * Nanosecond).Micros() != "163.84us" {
		t.Errorf("Micros = %q", (163840 * Nanosecond).Micros())
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds wrong")
	}
}

func TestUnits(t *testing.T) {
	if Microsecond != 1000 || Millisecond != 1_000_000 || Second != 1_000_000_000 {
		t.Error("unit constants wrong")
	}
}

func TestRunBudgetCompletes(t *testing.T) {
	var q Queue
	ran := 0
	for i := Time(1); i <= 10; i++ {
		q.At(i, func() { ran++ })
	}
	end, err := q.RunBudget(100, 1000)
	if err != nil {
		t.Fatalf("budgeted run failed: %v", err)
	}
	if ran != 10 || end != 10 {
		t.Errorf("ran=%d end=%v", ran, end)
	}
}

func TestRunBudgetStepExhaustion(t *testing.T) {
	var q Queue
	var tick func()
	tick = func() { q.After(1, tick) } // infinite self-rescheduling loop
	q.After(1, tick)
	_, err := q.RunBudget(50, 0)
	d, ok := err.(*Diagnostic)
	if !ok {
		t.Fatalf("err = %v, want *Diagnostic", err)
	}
	if d.Steps != 50 || d.Pending != 1 {
		t.Errorf("diagnostic %+v", d)
	}
	if !strings.Contains(d.Error(), "step budget") {
		t.Errorf("reason = %q", d.Reason)
	}
}

func TestRunBudgetTimeExhaustion(t *testing.T) {
	var q Queue
	ran := 0
	q.At(10, func() { ran++ })
	q.At(10_000, func() { ran++ })
	end, err := q.RunBudget(0, 100)
	d, ok := err.(*Diagnostic)
	if !ok {
		t.Fatalf("err = %v, want *Diagnostic", err)
	}
	if ran != 1 || end != 10 {
		t.Errorf("ran=%d end=%v", ran, end)
	}
	if !strings.Contains(d.Reason, "time budget") {
		t.Errorf("reason = %q", d.Reason)
	}
	if q.Len() != 1 {
		t.Errorf("pending = %d, want the over-deadline event", q.Len())
	}
}

func TestRunBudgetLivelockDetector(t *testing.T) {
	var q Queue
	var spin func()
	spin = func() { q.After(0, spin) } // zero-delay cycle: time never advances
	q.At(5, spin)
	_, err := q.RunBudget(NoProgressLimit*2, 0)
	d, ok := err.(*Diagnostic)
	if !ok {
		t.Fatalf("err = %v, want *Diagnostic", err)
	}
	if !strings.Contains(d.Reason, "no progress") {
		t.Errorf("reason = %q", d.Reason)
	}
	if d.Now != 5 {
		t.Errorf("livelock detected at %v, want 5", d.Now)
	}
}

func TestRunBudgetDiagnoserSnapshot(t *testing.T) {
	var q Queue
	q.SetDiagnoser(func() string { return "held: ch[3->7]" })
	var tick func()
	tick = func() { q.After(1, tick) }
	q.After(1, tick)
	_, err := q.RunBudget(10, 0)
	if err == nil || !strings.Contains(err.Error(), "held: ch[3->7]") {
		t.Fatalf("diagnostic missing snapshot: %v", err)
	}
}

func TestMustRunPanicsOnBudget(t *testing.T) {
	var q Queue
	var tick func()
	tick = func() { q.After(1, tick) }
	q.After(1, tick)
	defer func() {
		if _, ok := recover().(*Diagnostic); !ok {
			t.Error("MustRun did not panic with a Diagnostic")
		}
	}()
	q.MustRun(10, 0)
}

type nopOp struct{ n int }

func (o *nopOp) RunEvent() { o.n++ }

// Once the calendar has grown, scheduling and running a pre-bound Op
// allocates nothing.
func TestOpSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue
	op := &nopOp{}
	for i := 0; i < 64; i++ {
		q.AfterOp(Time(i), op)
	}
	q.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.AfterOp(Time(i%7), op)
		}
		q.Run()
	})
	if allocs != 0 {
		t.Errorf("AfterOp+Run allocates %v objects per round", allocs)
	}
}
