package traffic

import (
	"fmt"

	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/stats"
	"hypercube/internal/topology"
	"hypercube/internal/vc"
)

// LaneSweepConfig drives a port×lane spectrum sweep: the same seeded
// Poisson multicast trace — identical arrival instants, sources, and
// destination sets — replayed on every (port model, lane count) machine,
// across an offered-load grid. The two axes the related work trades off
// (Träff's k-ported vs. k-lane collectives; Stergiou's multi-lane
// saturation shift) land in one table family, directly comparable because
// nothing but the interconnect shape varies between columns.
type LaneSweepConfig struct {
	Dim       int
	Machine   string // "" selects ncube2
	Algorithm string // multicast algorithm ("" selects w-sort)
	// Ports and Lanes define the column grid: every port model crossed
	// with every lane count. Defaults: [one-port all-port] × [1 2 4].
	Ports []string
	Lanes []int
	// Policy is the lane-allocation policy of the multi-lane columns
	// ("" selects round-robin); 1-lane columns ignore it.
	Policy     string
	RatesPerMS []float64 // offered load (ops per simulated millisecond)
	Ops        int       // arrivals per scenario (0 selects 64)
	DestCount  int       // destinations per multicast (0 selects half the cube)
	Bytes      int       // payload (0 selects 4096)
	Seed       int64
	// Workers fans the independent cells across the parallel event
	// executor; results are byte-identical at every worker count.
	Workers int
}

// LaneSweepTables are the spectrum surfaces: blocked-channel fraction,
// mean sojourn (µs), and channel utilization, each rate-indexed with one
// column per port×lane machine.
type LaneSweepTables struct {
	Blocked *stats.Table
	Sojourn *stats.Table
	Util    *stats.Table
}

// laneColumns renders the column labels, e.g. "all-port/2L".
func laneColumns(ports []string, lanes []int) []string {
	cols := make([]string, 0, len(ports)*len(lanes))
	for _, p := range ports {
		for _, l := range lanes {
			cols = append(cols, fmt.Sprintf("%s/%dL", p, l))
		}
	}
	return cols
}

// LaneSweep runs the port×lane spectrum sweep. Everything is derived from
// the config (seeds included), so identical configs render identical
// tables.
func LaneSweep(cfg LaneSweepConfig) (*LaneSweepTables, error) {
	if len(cfg.RatesPerMS) == 0 {
		return nil, fmt.Errorf("traffic: lane sweep needs rates")
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("traffic: lane sweep dim %d", cfg.Dim)
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = "w-sort"
	}
	if _, err := core.ParseAlgorithm(cfg.Algorithm); err != nil {
		return nil, fmt.Errorf("traffic: %v", err)
	}
	if len(cfg.Ports) == 0 {
		cfg.Ports = []string{"one-port", "all-port"}
	}
	if len(cfg.Lanes) == 0 {
		cfg.Lanes = []int{1, 2, 4}
	}
	for _, l := range cfg.Lanes {
		if l < 1 || l > vc.MaxLanes {
			return nil, fmt.Errorf("traffic: lane count %d outside [1, %d]", l, vc.MaxLanes)
		}
	}
	if cfg.Policy == "" {
		cfg.Policy = vc.RoundRobin.String()
	}
	if _, err := vc.ParseKind(cfg.Policy); err != nil {
		return nil, fmt.Errorf("traffic: %v", err)
	}
	if cfg.Ops == 0 {
		cfg.Ops = 64
	}
	if cfg.Bytes == 0 {
		cfg.Bytes = 4096
	}
	if cfg.DestCount == 0 {
		cfg.DestCount = topology.New(cfg.Dim, topology.HighToLow).Nodes() / 2
	}

	cols := laneColumns(cfg.Ports, cfg.Lanes)
	title := fmt.Sprintf("Port×lane spectrum: %d-cube, %d Poisson %s multicasts, m=%d, %d B, %s",
		cfg.Dim, cfg.Ops, cfg.Algorithm, cfg.DestCount, cfg.Bytes, cfg.Policy)
	tbs := &LaneSweepTables{
		Blocked: stats.NewTable(title+" — blocked fraction", "ops/ms", cols...),
		Sojourn: stats.NewTable(title+" — mean sojourn µs", "ops/ms", cols...),
		Util:    stats.NewTable(title+" — channel utilization", "ops/ms", cols...),
	}
	// Each (rate, port, lanes) cell is an independent scenario — its own
	// session, calendar, and network — fanned across the parallel executor
	// and folded back in deterministic cell order (same shape as Sweep).
	nc := len(cols)
	results := make([]*Result, len(cfg.RatesPerMS)*nc)
	errs := make([]error, len(results))
	pq := event.NewParallel(cfg.Workers)
	for ri := range cfg.RatesPerMS {
		ci := 0
		for _, port := range cfg.Ports {
			for _, lanes := range cfg.Lanes {
				rate, port, lanes := cfg.RatesPerMS[ri], port, lanes
				cell := ri*nc + ci
				var q event.Queue
				q.At(0, func() {
					spec := &Spec{
						Dim:     cfg.Dim,
						Machine: cfg.Machine,
						Port:    port,
						Seed:    cfg.Seed,
						Arrivals: &Arrivals{
							Kind:      "poisson",
							Count:     cfg.Ops,
							RatePerMS: rate,
							Op: Template{
								Kind:      KindMulticast,
								Algorithm: cfg.Algorithm,
								Bytes:     cfg.Bytes,
								DestCount: cfg.DestCount,
							},
						},
					}
					if lanes > 1 {
						spec.Lanes = lanes
						spec.VCPolicy = cfg.Policy
					}
					results[cell], errs[cell] = Run(spec)
				})
				pq.Add(&q)
				ci++
			}
		}
	}
	if _, err := pq.Run(0, 0); err != nil {
		return nil, err
	}
	for ri, rate := range cfg.RatesPerMS {
		blocked := make([]float64, nc)
		sojourn := make([]float64, nc)
		util := make([]float64, nc)
		for ci := 0; ci < nc; ci++ {
			res, err := results[ri*nc+ci], errs[ri*nc+ci]
			if err != nil {
				return nil, fmt.Errorf("traffic: lane sweep %s at %g ops/ms: %w", cols[ci], rate, err)
			}
			m, _ := res.SojournStatsNS(0.95)
			blocked[ci] = res.Net.BlockedFraction
			sojourn[ci] = m / float64(event.Microsecond)
			util[ci] = res.Net.ChannelUtilization
		}
		tbs.Blocked.Add(rate, blocked...)
		tbs.Sojourn.Add(rate, sojourn...)
		tbs.Util.Add(rate, util...)
	}
	return tbs, nil
}
