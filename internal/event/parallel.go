// Parallel execution of independent calendars.
//
// A ParallelQueue drives P logical processes (LPs) — each an ordinary
// Queue — from W worker goroutines. The design requirement, inherited from
// every byte-identity test wall in this repository, is that the WORKER
// COUNT CAN NEVER INFLUENCE A SIMULATED RESULT: workers only decide which
// OS thread executes which LP, never the order of events within an LP.
//
// The LPs share no simulation state — each is a complete conflict domain
// (one run's calendar plus its private network). Run drives every LP's
// calendar to exhaustion concurrently. This is the regime of the batch
// runners: figure trials, sweep points, and server jobs are
// embarrassingly parallel, and each LP's execution is the byte-exact
// sequential execution (DESIGN.md §15).
package event

import (
	"fmt"
	"sync"
)

// parLP is one logical process: a calendar and its outcome.
type parLP struct {
	q     *Queue
	final Time
	err   error
}

// ParallelQueue coordinates P independent logical processes across W
// workers. Build one with NewParallel, register per-LP calendars with Add,
// then call Run exactly once. The zero value is not usable.
type ParallelQueue struct {
	workers int
	lps     []*parLP
}

// NewParallel creates a parallel executor. workers < 1 selects 1.
func NewParallel(workers int) *ParallelQueue {
	return &ParallelQueue{workers: max(workers, 1)}
}

// Add registers q as a logical process; its LP id is its registration
// index. The caller must not drive q directly while Run executes.
func (pq *ParallelQueue) Add(q *Queue) {
	pq.lps = append(pq.lps, &parLP{q: q})
}

// Run drives each LP's calendar to exhaustion on the worker pool, under
// the same watchdog contract as Queue.RunBudget: maxSteps events per LP
// (<= 0 selects DefaultMaxSteps) and no event beyond maxTime (<= 0 means
// unbounded). LPs share no state, so each LP's execution is exactly its
// sequential execution; the aggregation below is a deterministic fold over
// per-LP outcomes in LP order. Run returns the latest simulated time
// reached by any LP and the first budget Diagnostic in LP order, if any.
func (pq *ParallelQueue) Run(maxSteps int, maxTime Time) (Time, error) {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(pq.workers, len(pq.lps)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range work {
				lp := pq.lps[id]
				lp.final, lp.err = lp.q.RunBudget(maxSteps, maxTime)
			}
		}()
	}
	for id := range pq.lps {
		work <- id
	}
	close(work)
	wg.Wait()

	var end Time
	for _, lp := range pq.lps {
		if lp.final > end {
			end = lp.final
		}
	}
	for id, lp := range pq.lps {
		if lp.err != nil {
			return end, fmt.Errorf("event: LP %d: %w", id, lp.err)
		}
	}
	return end, nil
}
