// Command perfbench is the repository benchmark. It measures the three
// paths a user of the simulator waits on, end to end, and checks every
// output it measures:
//
//   - figures: the eight cmd/figures tables, through the public workload
//     sweeps;
//   - traffic: a seeded set of scenario specs through traffic.Parse,
//     Canonicalize, Run and the JSON encoder (the cmd/traffic -spec and
//     /v1/traffic path);
//   - serve: /v1 requests from two closed-loop clients through a
//     cluster.Router and two server.Server shards with a disk cache tier.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload figures --seed 1993 --seconds 40 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it makes an untraced pass and a traced pass,
// reports the per-layer metrics, and writes the spans and an attribution
// table (per layer: calls, self time, share, plus the unexplained remainder
// and the tracing overhead) under --out. Every run also writes a detail
// document there that stamps the host and gives each metric's sample
// count, median and quartiles.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check makes
// correct false; an error that stops the measurement exits 1 without a
// result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the committed results/ artifacts were generated
// with; only at this seed can outputs be compared with committed bytes.
const defaultSeed = 1993

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported by every workload.
// An operation is a figure table, a traffic scenario or an HTTP request;
// the throughput counts multicast instances, traffic ops or requests.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"alloc_mb", "MB"},
	{"success_frac", "ratio"},
}

// perLayer are the metrics of a traced run. Every traced run reports all of
// them; a layer a workload never calls reads 0.
var perLayer = []metricDef{
	// figures: host cost of each simulator layer under the replica.
	{"core.schedule.calls", "count"},
	{"core.schedule.us_per_call", "us"},
	{"core.schedule.share", "ratio"},
	{"core.schedule.alloc_kb_per_call", "KB"},
	{"core.build.calls", "count"},
	{"core.build.us_per_call", "us"},
	{"core.build.share", "ratio"},
	{"core.build.alloc_kb_per_call", "KB"},
	{"ncube.run.calls", "count"},
	{"ncube.run.us_per_call", "us"},
	{"ncube.run.share", "ratio"},
	{"ncube.run.alloc_kb_per_call", "KB"},
	{"workload.generate.share", "ratio"},
	{"event.steps_per_run", "count"},
	{"event.ns_per_step", "ns"},
	{"wormhole.acquires_per_run", "count"},
	{"wormhole.header_blocks_per_run", "count"},
	{"workload.remainder_share", "ratio"},
	{"workload.trace_overhead_frac", "ratio"},
	// traffic: the spec pipeline stages, and simulated network totals.
	{"traffic.parse.us_per_spec", "us"},
	{"traffic.parse.share", "ratio"},
	{"traffic.canonicalize.us_per_spec", "us"},
	{"traffic.canonicalize.share", "ratio"},
	{"traffic.run.us_per_op", "us"},
	{"traffic.run.share", "ratio"},
	{"traffic.run.alloc_kb_per_op", "KB"},
	{"traffic.run.ns_per_unicast", "ns"},
	{"traffic.encode.us_per_spec", "us"},
	{"traffic.encode.share", "ratio"},
	{"wormhole.delivered", "count"},
	{"wormhole.header_blocks", "count"},
	{"wormhole.blocked_fraction", "ratio"},
	{"traffic.remainder_share", "ratio"},
	{"traffic.trace_overhead_frac", "ratio"},
	// serve: the request path, the cache tiers and the shard counters.
	{"server.key.us_per_call", "us"},
	{"client.transport.us_p50", "us"},
	{"client.transport.share", "ratio"},
	{"cluster.route.us_p50", "us"},
	{"cluster.route.share", "ratio"},
	{"server.handle.share", "ratio"},
	{"server.handle.hit.us_p50", "us"},
	{"server.handle.disk.us_p50", "us"},
	{"server.handle.miss.us_p50", "us"},
	{"server.handle.miss.simulate.us_p50", "us"},
	{"server.handle.miss.collective.us_p50", "us"},
	{"server.handle.miss.tree.us_p50", "us"},
	{"server.handle.miss.traffic.us_p50", "us"},
	{"simcache.hit_frac", "ratio"},
	{"simcache.disk_frac", "ratio"},
	{"simcache.miss_frac", "ratio"},
	{"simcache.dedup_frac", "ratio"},
	{"server.sims_executed", "count"},
	{"server.batched_points", "count"},
	{"server.jobs_shed", "count"},
	{"simcache.disk_writes", "count"},
	{"simcache.evictions", "count"},
	{"cluster.remainder_share", "ratio"},
	{"cluster.trace_overhead_frac", "ratio"},
}

// options are the benchmark's command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// workloads maps each workload name to the function that runs it. That
// function fills the run with samples, checks and (traced) attribution; an
// error means the measurement itself could not be made.
var workloads = map[string]func(*run) error{
	"figures": runFigures,
	"traffic": runTraffic,
	"serve":   runServe,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: figures, traffic or serve")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; inputs are a pure function of it")
	flag.Float64Var(&o.seconds, "seconds", 40, "measured time per run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 makes a traced run that reports the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for the detail document, spans and attribution table")
	flag.Parse()
	o.trace = trace == 1
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	drive, ok := workloads[o.workload]
	switch {
	case !ok:
		fail(fmt.Errorf("unknown --workload %q (want figures, traffic or serve)", o.workload))
	case flag.NArg() > 0:
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	case trace != 0 && trace != 1:
		fail(fmt.Errorf("--trace must be 0 or 1, not %d", trace))
	case !(o.seconds > 0):
		fail(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fail(err)
	}
	r := newRun(o)
	if err := drive(r); err != nil {
		fail(fmt.Errorf("%s: %w", o.workload, err))
	}
	line, err := r.finish()
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// run accumulates one benchmark run: metric samples, operation checks and,
// for a traced run, the attribution table and spans.
type run struct {
	opts      options
	started   time.Time
	values    map[string]float64
	samples   map[string][]float64
	attempted int
	failed    int
	failures  []string
	attrib    *attribution
	spans     []span
	notes     map[string]any
}

func newRun(o options) *run {
	return &run{
		opts:    o,
		started: time.Now(),
		values:  map[string]float64{},
		samples: map[string][]float64{},
		notes:   map[string]any{},
	}
}

// set records a metric's reported value and the samples it summarizes.
func (r *run) set(name string, value float64, samples ...float64) {
	r.values[name] = value
	if len(samples) > 0 {
		r.samples[name] = samples
	} else {
		r.samples[name] = []float64{value}
	}
}

// setMedian reports the median of samples.
func (r *run) setMedian(name string, samples []float64) {
	r.set(name, quantile(samples, 0.5), samples...)
}

// setLatencies reports the latency percentiles of repeated operations:
// each operation's latency is its median over the passes, and the
// percentiles are taken over the operations.
func (r *run) setLatencies(perOp [][]float64) {
	meds := make([]float64, len(perOp))
	for i, xs := range perOp {
		meds[i] = quantile(xs, 0.5)
	}
	r.set("latency_p50_ms", quantile(meds, 0.5), meds...)
	r.set("latency_p95_ms", quantile(meds, 0.95), meds...)
}

// op counts one checked operation; err non-nil marks it failed.
func (r *run) op(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 50 {
		r.failures = append(r.failures, err.Error())
	}
}

// host stamps the machine and toolchain every result was measured on.
func host() map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"go_version": runtime.Version(),
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSummary is one metric of the detail document.
type metricSummary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"samples"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// finish writes the detail document, the spans and the attribution table,
// prints a human summary, and returns the result line.
func (r *run) finish() ([]byte, error) {
	defs := endToEnd
	if r.opts.trace {
		defs = perLayer
	}
	if r.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	doc := map[string]any{
		"schema":    "hypercube-perfbench/v1",
		"workload":  r.opts.workload,
		"seed":      r.opts.seed,
		"seconds":   r.opts.seconds,
		"trace":     r.opts.trace,
		"host":      host(),
		"wall_s":    time.Since(r.started).Seconds(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"failures":  r.failures,
		"notes":     r.notes,
	}
	summaries := map[string]metricSummary{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.opts.trace {
			return nil, fmt.Errorf("workload %s did not measure %s", r.opts.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		xs := r.samples[d.name]
		if len(xs) == 0 {
			xs = []float64{v}
		}
		summaries[d.name] = metricSummary{
			Value: v, Unit: d.unit, N: len(xs),
			Median: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75),
		}
	}
	doc["metrics"] = summaries
	base := fmt.Sprintf("%s-seed%d", r.opts.workload, r.opts.seed)
	if r.opts.trace {
		base += "-traced"
	}
	if r.attrib != nil {
		doc["attribution"] = r.attrib
		table := r.attrib.render()
		fmt.Print(table)
		if err := os.WriteFile(filepath.Join(r.opts.out, "attribution-"+base+".txt"), []byte(table), 0o644); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(r.opts.out, "spans-"+base+".jsonl"), r.spans); err != nil {
			return nil, err
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(r.opts.out, base+".json"), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(summaries))
	for n := range summaries {
		if _, measured := r.values[n]; measured {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d trace=%v host=%v\n", r.opts.workload, r.opts.seed, r.opts.trace, host())
	for _, n := range names {
		s := summaries[n]
		fmt.Printf("  %-40s %14.6g %-6s n=%-6d q1=%.6g q3=%.6g\n", n, s.Value, s.Unit, s.N, s.Q1, s.Q3)
	}
	for _, f := range r.failures {
		fmt.Printf("  FAILED: %s\n", strings.SplitN(f, "\n", 2)[0])
	}
	return json.Marshal(res)
}
