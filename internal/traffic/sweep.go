package traffic

import (
	"fmt"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/stats"
	"hypercube/internal/topology"
)

// SweepConfig drives an offered-load sweep: one seeded Poisson multicast
// scenario per (rate, algorithm) cell, all on the same cube and machine.
type SweepConfig struct {
	Dim        int
	Machine    string    // "" selects ncube2
	Port       string    // "" selects all-port
	Algorithms []string  // multicast algorithms, one table column each
	RatesPerMS []float64 // offered load (ops per simulated millisecond)
	Ops        int       // arrivals per scenario (0 selects 64)
	DestCount  int       // destinations per multicast (0 selects half the cube)
	Bytes      int       // payload (0 selects 4096)
	Seed       int64
	// Workers fans the independent (rate, algorithm) cells across the
	// parallel event executor: each cell is its own conflict domain (a
	// private session and calendar), so the tables are byte-identical at
	// every worker count. 0 or 1 runs the cells serially.
	Workers int
}

// SweepTables are the saturation curves of one sweep: per-op latency
// (mean and p95 sojourn, µs) and shared-channel utilization, each as
// rate-indexed tables with one column per algorithm.
type SweepTables struct {
	Mean *stats.Table
	P95  *stats.Table
	Util *stats.Table
}

// Sweep runs the offered-load sweep. Everything is derived from the
// config (seeds included), so identical configs render identical tables.
func Sweep(cfg SweepConfig) (*SweepTables, error) {
	if len(cfg.Algorithms) == 0 || len(cfg.RatesPerMS) == 0 {
		return nil, fmt.Errorf("traffic: sweep needs algorithms and rates")
	}
	for _, a := range cfg.Algorithms {
		if _, err := core.ParseAlgorithm(a); err != nil {
			return nil, fmt.Errorf("traffic: %v", err)
		}
	}
	if cfg.Ops == 0 {
		cfg.Ops = 64
	}
	if cfg.Bytes == 0 {
		cfg.Bytes = 4096
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("traffic: sweep dim %d", cfg.Dim)
	}
	if cfg.DestCount == 0 {
		cfg.DestCount = topology.New(cfg.Dim, topology.HighToLow).Nodes() / 2
	}

	title := fmt.Sprintf("Saturation: %d-cube, %d Poisson multicasts, m=%d, %d B",
		cfg.Dim, cfg.Ops, cfg.DestCount, cfg.Bytes)
	tbs := &SweepTables{
		Mean: stats.NewTable(title+" — mean sojourn µs", "ops/ms", cfg.Algorithms...),
		P95:  stats.NewTable(title+" — p95 sojourn µs", "ops/ms", cfg.Algorithms...),
		Util: stats.NewTable(title+" — channel utilization", "ops/ms", cfg.Algorithms...),
	}
	// Each (rate, algorithm) cell is an independent scenario — its own
	// session, calendar, and network. Fan the cells across the parallel
	// event executor as one logical process each (a single time-zero
	// event runs the whole scenario), then fold the results back in
	// deterministic cell order.
	nr, na := len(cfg.RatesPerMS), len(cfg.Algorithms)
	results := make([]*Result, nr*na)
	errs := make([]error, nr*na)
	pq := event.NewParallel(cfg.Workers)
	for ri := range cfg.RatesPerMS {
		for ai := range cfg.Algorithms {
			rate, alg := cfg.RatesPerMS[ri], cfg.Algorithms[ai]
			var q event.Queue
			q.At(0, func() {
				spec := &Spec{
					Dim:     cfg.Dim,
					Machine: cfg.Machine,
					Port:    cfg.Port,
					Seed:    cfg.Seed,
					Arrivals: &Arrivals{
						Kind:      "poisson",
						Count:     cfg.Ops,
						RatePerMS: rate,
						Op: Template{
							Kind:      KindMulticast,
							Algorithm: alg,
							Bytes:     cfg.Bytes,
							DestCount: cfg.DestCount,
						},
					},
				}
				results[ri*na+ai], errs[ri*na+ai] = Run(spec)
			})
			pq.Add(&q)
		}
	}
	if _, err := pq.Run(0, 0); err != nil {
		return nil, err
	}
	for ri, rate := range cfg.RatesPerMS {
		mean := make([]float64, na)
		p95 := make([]float64, na)
		util := make([]float64, na)
		for ai, alg := range cfg.Algorithms {
			res, err := results[ri*na+ai], errs[ri*na+ai]
			if err != nil {
				return nil, fmt.Errorf("traffic: sweep %s at %g ops/ms: %w", alg, rate, err)
			}
			m, qs := res.SojournStatsNS(0.95)
			mean[ai] = m / float64(event.Microsecond)
			p95[ai] = float64(qs[0]) / float64(event.Microsecond)
			util[ai] = res.Net.ChannelUtilization
		}
		tbs.Mean.Add(rate, mean...)
		tbs.P95.Add(rate, p95...)
		tbs.Util.Add(rate, util...)
	}
	return tbs, nil
}
