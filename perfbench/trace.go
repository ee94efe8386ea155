package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"hypercube/internal/stats"
)

// quantile is the q-quantile of xs under the repository's one percentile
// definition (linear interpolation between order statistics).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.PercentileSorted(s, q)
}

// span is one timed interval of a traced run. Times are nanoseconds since
// the recorder started; Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
	AllocB uint64 `json:"alloc_bytes,omitempty"`
	Tag    string `json:"tag,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark ends. Safe for
// concurrent use.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// since converts a wall-clock instant to recorder time.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// add stores s, assigning its ID, and returns the ID.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// setEnd closes the span id at t.
func (r *recorder) setEnd(id int, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.since(t)
}

// open starts a span that setEnd closes.
func (r *recorder) open(name string, parent int) int {
	return r.add(span{Parent: parent, Name: name, Start: r.since(time.Now())})
}

func (r *recorder) close(id int) { r.setEnd(id, time.Now()) }

// selfTimes returns each span's duration minus the part its children
// cover, indexed like spans.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// attribution is the traced run's table: one row per layer with its call
// count, self time and share of the traced total, plus the unexplained
// remainder and the tracing overhead against the untraced pass.
type attribution struct {
	Workload    string     `json:"workload"`
	TotalMS     float64    `json:"traced_total_ms"`
	UntracedMS  float64    `json:"untraced_ms"`
	Rows        []layerRow `json:"rows"`
	RemainderMS float64    `json:"remainder_ms"`
	Remainder   float64    `json:"remainder_share"`
	Overhead    float64    `json:"trace_overhead_frac"`
	Note        string     `json:"note,omitempty"`
}

type layerRow struct {
	Layer  string  `json:"layer"`
	Calls  int64   `json:"calls"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// attribute builds the table. layerOf maps a span to its layer row, or ""
// when its self time belongs to the remainder; calls are summed from the
// spans' Calls (1 when unset). total and untraced are in nanoseconds.
func attribute(workload string, spans []span, layerOf func(span) string, total, untraced int64) *attribution {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	var order []string
	var covered int64
	for i, s := range spans {
		l := layerOf(s)
		if l == "" {
			continue
		}
		row := rows[l]
		if row == nil {
			row = &layerRow{Layer: l}
			rows[l] = row
			order = append(order, l)
		}
		calls := int64(s.Calls)
		if calls == 0 {
			calls = 1
		}
		row.Calls += calls
		row.SelfMS += float64(self[i]) / 1e6
		covered += self[i]
	}
	a := &attribution{
		Workload:    workload,
		TotalMS:     float64(total) / 1e6,
		UntracedMS:  float64(untraced) / 1e6,
		RemainderMS: float64(total-covered) / 1e6,
	}
	sort.Strings(order)
	for _, l := range order {
		row := *rows[l]
		row.Share = row.SelfMS / a.TotalMS
		a.Rows = append(a.Rows, row)
	}
	a.Remainder = a.RemainderMS / a.TotalMS
	a.Overhead = a.TotalMS/a.UntracedMS - 1
	return a
}

// row returns the named layer's row (zero when the layer never ran).
func (a *attribution) row(layer string) layerRow {
	for _, r := range a.Rows {
		if r.Layer == layer {
			return r
		}
	}
	return layerRow{Layer: layer}
}

func (a *attribution) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attribution %s: traced total %.1f ms, untraced %.1f ms\n", a.Workload, a.TotalMS, a.UntracedMS)
	if a.Note != "" {
		fmt.Fprintf(&b, "  (%s)\n", a.Note)
	}
	fmt.Fprintf(&b, "  %-28s %12s %14s %8s\n", "layer", "calls", "self_ms", "share")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "  %-28s %12d %14.3f %8.4f\n", r.Layer, r.Calls, r.SelfMS, r.Share)
	}
	fmt.Fprintf(&b, "  %-28s %12s %14.3f %8.4f\n", "remainder", "", a.RemainderMS, a.Remainder)
	fmt.Fprintf(&b, "  trace overhead %+.4f of the untraced run\n", a.Overhead)
	return b.String()
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// regressed compares paired runs, base[i] against cur[i] (lower is
// better): cur regressed when it is worse in at least two thirds of the
// pairs and the median of the paired ratios cur/base exceeds 1+bound.
// Pairing cancels the host's drift between one pair and the next.
func regressed(base, cur []float64, bound float64) bool {
	worse := 0
	ratios := make([]float64, len(base))
	for i := range base {
		if cur[i] > base[i] {
			worse++
		}
		ratios[i] = cur[i] / base[i]
	}
	return 3*worse >= 2*len(base) && quantile(ratios, 0.5) > 1+bound
}

// timeBudget runs passes until the next one would overrun seconds, always
// running at least one, and returns each pass's duration in seconds.
// Between passes it times the set-up again whenever st says one is due.
func timeBudget(seconds float64, st *setupTimer, pass func()) ([]float64, error) {
	var durs []float64
	start := time.Now()
	for {
		t0 := time.Now()
		pass()
		durs = append(durs, time.Since(t0).Seconds())
		if time.Since(start).Seconds()+quantile(durs, 0.5) > seconds {
			return durs, nil
		}
		if st.due() {
			if err := st.time(); err != nil {
				return durs, err
			}
		}
	}
}

// setupSamples is how many set-up samples a run spreads over its measured
// time. The host's speed drifts over seconds, so set-ups timed only before
// the first pass would read that moment's speed rather than the run's.
const setupSamples = 12

// setupTimer times a workload's preparation: a few times in a row before
// the first pass, then again between passes, about every
// seconds/setupSamples. setup_s is the median of all the samples; the last
// preparation's state is the one kept.
type setupTimer struct {
	prepare func() error
	every   time.Duration
	last    time.Time
	samples []float64
}

func newSetupTimer(seconds float64, prepare func() error) *setupTimer {
	return &setupTimer{prepare: prepare, every: time.Duration(seconds / setupSamples * float64(time.Second))}
}

// time prepares once and records how long it took.
func (s *setupTimer) time() error {
	t0 := time.Now()
	if err := s.prepare(); err != nil {
		return err
	}
	s.last = time.Now()
	s.samples = append(s.samples, s.last.Sub(t0).Seconds())
	return nil
}

// start prepares n times in a row, before the first pass.
func (s *setupTimer) start(n int) error {
	for i := 0; i < n; i++ {
		if err := s.time(); err != nil {
			return err
		}
	}
	return nil
}

// due reports whether the next spread-out sample is due.
func (s *setupTimer) due() bool { return time.Since(s.last) >= s.every }

// report sets setup_s to the median of the samples.
func (s *setupTimer) report(r *run) { r.setMedian("setup_s", s.samples) }
