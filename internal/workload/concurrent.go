package workload

import (
	"fmt"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/metrics"
	"hypercube/internal/ncube"
	"hypercube/internal/stats"
	"hypercube/internal/topology"
)

// ConcurrentConfig drives the multi-multicast interference sweep — an
// extension experiment beyond the paper, whose theorems cover only the
// unicasts within one multicast. The x axis is the number of simultaneous
// multicasts on one interconnect; the y value is the mean over trials of
// the slowest multicast's makespan.
type ConcurrentConfig struct {
	Dim        int
	Dests      int // destinations per multicast
	Trials     int
	Seed       int64
	Bytes      int
	Params     ncube.Params
	Counts     []int // numbers of concurrent multicasts; default 1,2,4,8,16
	Algorithms []core.Algorithm
	Workers    int
	// Metrics, when non-nil, aggregates sweep-wide observability (see
	// DelayConfig.Metrics).
	Metrics *metrics.Registry
}

func (c *ConcurrentConfig) setDefaults() {
	if c.Trials == 0 {
		c.Trials = 20
	}
	if c.Bytes == 0 {
		c.Bytes = 4096
	}
	if c.Params == (ncube.Params{}) {
		c.Params = ncube.NCube2(core.AllPort)
	}
	if len(c.Counts) == 0 {
		c.Counts = []int{1, 2, 4, 8, 16}
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort}
	}
}

// Concurrent measures cross-multicast interference: for each concurrency
// level k, k multicasts with random sources and destination sets run on
// one shared network, and the slowest makespan is recorded (microseconds).
func Concurrent(cfg ConcurrentConfig) *stats.Table {
	cfg.setDefaults()
	cube := topology.New(cfg.Dim, topology.HighToLow)
	cols := make([]string, len(cfg.Algorithms))
	for i, a := range cfg.Algorithms {
		cols[i] = a.String()
	}
	tb := stats.NewTable(
		fmt.Sprintf("concurrent multicast interference (us), %d-cube, m=%d each, %d-byte messages, %d trials",
			cfg.Dim, cfg.Dests, cfg.Bytes, cfg.Trials),
		"multicasts", cols...)
	ins := ncube.Instrumentation{Metrics: cfg.Metrics}
	mTrials := cfg.Metrics.Counter("workload_trials")
	mMakespan := cfg.Metrics.Histogram("workload_makespan_us")
	rows := make([][]float64, len(cfg.Counts))
	ForEachPoint(len(cfg.Counts), cfg.Workers, func(pi int) {
		k := cfg.Counts[pi]
		gen := NewGenerator(cube, cfg.Seed+int64(k))
		samples := make([][]float64, len(cfg.Algorithms))
		for trial := 0; trial < cfg.Trials; trial++ {
			srcs := make([]topology.NodeID, k)
			dsts := make([][]topology.NodeID, k)
			for j := 0; j < k; j++ {
				srcs[j] = gen.Source()
				dsts[j] = gen.Dests(srcs[j], cfg.Dests)
			}
			mTrials.Inc()
			for i, a := range cfg.Algorithms {
				trees := make([]*core.Tree, k)
				for j := 0; j < k; j++ {
					trees[j] = core.Build(cube, a, srcs[j], dsts[j])
				}
				results := ncube.RunManyInstrumented(cfg.Params, trees, cfg.Bytes, ins)
				var worst event.Time
				for _, r := range results {
					if r.Makespan > worst {
						worst = r.Makespan
					}
				}
				us := float64(worst) / float64(event.Microsecond)
				mMakespan.Observe(int64(us))
				samples[i] = append(samples[i], us)
			}
		}
		cells := make([]float64, len(samples))
		for i, xs := range samples {
			cells[i] = stats.Mean(xs)
		}
		rows[pi] = cells
	})
	for pi, k := range cfg.Counts {
		tb.Add(float64(k), rows[pi]...)
	}
	return tb
}
