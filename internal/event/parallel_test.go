package event

import (
	"reflect"
	"testing"
)

// TestParallelIndependentMatchesSequential drives N independent synthetic
// calendars — each a deterministic cascade of self-scheduling events —
// through the parallel executor at several worker counts and requires the
// exact per-LP trace the sequential execution produces.
func TestParallelIndependentMatchesSequential(t *testing.T) {
	const nLP = 7
	build := func(q *Queue, id int, log *[]Time) {
		// A chain of events: each appends the current time and
		// reschedules itself a deterministic (id-dependent) delay out.
		var step int
		var fire func()
		fire = func() {
			*log = append(*log, q.Now())
			step++
			if step < 20 {
				q.After(Time(1+(id*7+step)%13), fire)
			}
		}
		q.At(Time(id), fire)
	}

	// Sequential reference.
	want := make([][]Time, nLP)
	for id := 0; id < nLP; id++ {
		var q Queue
		build(&q, id, &want[id])
		q.Run()
	}

	for _, workers := range []int{1, 2, 4, 8} {
		got := make([][]Time, nLP)
		pq := NewParallel(workers)
		queues := make([]*Queue, nLP)
		for id := 0; id < nLP; id++ {
			queues[id] = &Queue{}
			build(queues[id], id, &got[id])
			pq.Add(queues[id])
		}
		if _, err := pq.Run(0, 0); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel trace diverges from sequential", workers)
		}
	}
}

// TestParallelBudgets mirrors RunBudget's watchdog semantics: step and
// time budgets return Diagnostics naming the exhausted budget, and Run
// reports the first failing LP in LP order regardless of completion order.
func TestParallelBudgets(t *testing.T) {
	// Step budget: LP 1 spins forever.
	pq := NewParallel(4)
	q0, q1 := &Queue{}, &Queue{}
	pq.Add(q0)
	pq.Add(q1)
	q0.At(0, func() {})
	var spin func()
	n := 0
	spin = func() { n++; q1.After(1, spin) }
	q1.At(0, spin)
	_, err := pq.Run(1000, 0)
	d, ok := err.(interface{ Error() string })
	if !ok || d == nil {
		t.Fatalf("want diagnostic error, got %v", err)
	}
	if want := "LP 1"; !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err.Error(), want)
	}

	// Time budget.
	wq := NewParallel(2)
	wa := &Queue{}
	wq.Add(wa)
	var tick func()
	tick = func() { wa.After(5, tick) }
	wa.At(0, tick)
	_, err = wq.Run(0, 100)
	if err == nil || !containsStr(err.Error(), "time budget") {
		t.Fatalf("want time-budget diagnostic, got %v", err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
