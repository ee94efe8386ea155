package server

import (
	"fmt"
	"net/http"

	"hypercube/internal/collective"
	"hypercube/internal/core"
	"hypercube/internal/event"
	"hypercube/internal/ncube"
	"hypercube/internal/stats"
	"hypercube/internal/topology"
	"hypercube/internal/traffic"
	"hypercube/internal/workload"
)

// The run functions below execute on pool workers. Each must be a pure
// function of its canonical request: no wall clock, no shared mutable
// state, metrics only (instrumentation never alters simulated results) —
// so the encoded response is byte-identical across cache misses, worker
// interleavings, and server restarts. Each run re-derives its execution
// inputs by re-normalizing the already-canonical request; normalization is
// idempotent, and re-deriving is far cheaper than the simulation itself.

func us(t event.Time) float64 { return float64(t) / float64(event.Microsecond) }

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	// /v1/simulate executes through the coalescer, not poolExec: requests
	// of one sweep family arriving within the batch window run as a single
	// pooled job (one sims-executed account, like a sweep), each point
	// cached and answered under its own key.
	serveCached(s, "simulate", w, r,
		func(req *SimulateRequest) error {
			_, _, _, err := req.normalize(s.lim)
			return err
		},
		s.coalesce.exec)
}

// simulateBody is one coalesced point: run the simulation and encode the
// response exactly as the solo path would, so batched and un-batched
// executions of the same canonical request are byte-identical.
func (s *Server) simulateBody(req SimulateRequest) ([]byte, error) {
	resp, err := s.runSimulate(req)
	if err != nil {
		return nil, err
	}
	return encodeBody(resp)
}

func (s *Server) runSimulate(req SimulateRequest) (any, error) {
	cube, p, alg, err := req.normalize(s.lim)
	if err != nil {
		return nil, err
	}
	tr := core.Build(cube, alg, topology.NodeID(req.Src), toNodeIDs(req.Dests))
	res, err := ncube.RunInstrumentedBudget(p, tr, req.Bytes,
		ncube.Instrumentation{Metrics: s.reg}, s.cfg.WatchdogSteps, s.cfg.WatchdogTime)
	if err != nil {
		return nil, err
	}
	return SimulateResponse{
		Request:        req,
		MakespanNS:     int64(res.Makespan),
		MakespanUS:     us(res.Makespan),
		TotalBlockedNS: int64(res.TotalBlocked),
		Recv:           sortedNodeTimes(res.Recv),
	}, nil
}

func (s *Server) handleFaultTolerant(w http.ResponseWriter, r *http.Request) {
	serveCached(s, "simulate/fault-tolerant", w, r,
		func(req *FaultTolerantRequest) error {
			_, _, _, _, err := req.normalize(s.lim)
			return err
		},
		poolExec(s, s.runFaultTolerant))
}

func (s *Server) runFaultTolerant(req FaultTolerantRequest) (any, error) {
	cube, p, alg, plan, err := req.normalize(s.lim)
	if err != nil {
		return nil, err
	}
	// Per-request deadline: the server's watchdog budget, tightened (never
	// widened) by the request's own limits.
	p.WatchdogSteps = s.cfg.WatchdogSteps
	if req.MaxSimSteps > 0 && (p.WatchdogSteps == 0 || req.MaxSimSteps < p.WatchdogSteps) {
		p.WatchdogSteps = req.MaxSimSteps
	}
	p.WatchdogTime = s.cfg.WatchdogTime
	if reqT := event.Time(req.MaxSimTimeUS) * event.Microsecond; reqT > 0 && (p.WatchdogTime == 0 || reqT < p.WatchdogTime) {
		p.WatchdogTime = reqT
	}
	s.mSims.Inc()
	res, err := ncube.RunFaultTolerantInstrumented(ncube.JitterParams{Params: p}, cube, alg,
		topology.NodeID(req.Src), toNodeIDs(req.Dests), req.Bytes, plan,
		ncube.Instrumentation{Metrics: s.reg})
	if err != nil {
		return nil, err
	}
	resp := FaultTolerantResponse{
		Request:        req,
		MakespanNS:     int64(res.Makespan),
		MakespanUS:     us(res.Makespan),
		TotalBlockedNS: int64(res.TotalBlocked),
		Retries:        res.Retries,
		Repairs:        res.Repairs,
	}
	for _, d := range req.Dests {
		st := res.Status[topology.NodeID(d)]
		if st.Reached() {
			resp.Delivered++
		}
		resp.Status = append(resp.Status, NodeStatus{Node: d, Status: st.String()})
	}
	return resp, nil
}

func (s *Server) handleCollective(w http.ResponseWriter, r *http.Request) {
	serveCached(s, "collective", w, r,
		func(req *CollectiveRequest) error {
			_, _, err := req.normalize(s.lim)
			return err
		},
		poolExec(s, s.runCollective))
}

func (s *Server) runCollective(req CollectiveRequest) (any, error) {
	cube, p, err := req.normalize(s.lim)
	if err != nil {
		return nil, err
	}
	s.mSims.Inc()
	root := topology.NodeID(req.Root)
	tc := event.Time(req.TComputeNS)
	var res collective.Result
	verified := false
	// The data-carrying ops synthesize seeded per-node vectors, thread
	// them through the schedule, and verify the delivered data against
	// the analytic expectation; a mismatch is an internal error, never a
	// silently wrong timing answer.
	runData := func(f func(in [][]float64) (collective.DataResult, error), elems int) error {
		in := collective.RandomData(req.Seed, cube.Nodes(), elems)
		dr, err := f(in)
		if err != nil {
			return fmt.Errorf("payload verification failed: %v", err)
		}
		res, verified = dr.Result, true
		return nil
	}
	blockElems := req.Bytes / collective.ElemBytes
	if blockElems < 1 {
		blockElems = 1
	}
	vecElems := cube.Nodes() * blockElems
	switch req.Op {
	case "scatter":
		res = collective.Scatter(p, cube, root, req.Bytes)
	case "gather":
		res = collective.Gather(p, cube, root, req.Bytes)
	case "reduce":
		res = collective.Reduce(p, cube, root, req.Bytes, tc)
	case "barrier":
		res = collective.Barrier(p, cube)
	case "allgather":
		res = collective.AllGather(p, cube, req.Bytes)
	case "allreduce":
		switch req.Variant {
		case "hd":
			err = runData(func(in [][]float64) (collective.DataResult, error) {
				return collective.AllReduceHD(p, cube, in, tc)
			}, vecElems)
		case "ring":
			err = runData(func(in [][]float64) (collective.DataResult, error) {
				return collective.AllReduceRing(p, cube, in, tc)
			}, vecElems)
		default:
			res = collective.AllReduce(p, cube, req.Bytes, tc)
		}
	case "reduce-scatter":
		err = runData(func(in [][]float64) (collective.DataResult, error) {
			return collective.ReduceScatter(p, cube, in, tc)
		}, vecElems)
	case "alltoall":
		err = runData(func(in [][]float64) (collective.DataResult, error) {
			return collective.AllToAll(p, cube, in)
		}, vecElems)
	default:
		return nil, badf("unknown op %q", req.Op)
	}
	if err != nil {
		return nil, err
	}
	resp := CollectiveResponse{
		Request:        req,
		MakespanNS:     int64(res.Makespan),
		MakespanUS:     us(res.Makespan),
		Messages:       res.Messages,
		TotalBlockedNS: int64(res.TotalBlocked),
		DataVerified:   verified,
	}
	if req.IncludeFinish {
		resp.Finish = sortedNodeTimes(res.Finish)
	}
	return resp, nil
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	serveCached(s, "tree", w, r,
		func(req *TreeRequest) error {
			_, _, _, err := req.normalize(s.lim)
			return err
		},
		poolExec(s, s.runTree))
}

func (s *Server) runTree(req TreeRequest) (any, error) {
	cube, alg, pm, err := req.normalize(s.lim)
	if err != nil {
		return nil, err
	}
	dests := toNodeIDs(req.Dests)
	tr := core.Build(cube, alg, topology.NodeID(req.Src), dests)
	m := tr.ComputeMetrics(dests)
	sch := core.NewSchedule(tr, pm)
	cont := core.CheckContention(sch)
	resp := TreeResponse{
		Request:        req,
		Unicasts:       m.Unicasts,
		Height:         m.Height,
		TotalHops:      m.TotalHops,
		MaxOutDegree:   m.MaxOutDegree,
		ChannelReuses:  m.ChannelReuses,
		Relays:         m.Relays,
		Steps:          sch.Steps(),
		StepLowerBound: core.StepLowerBound(pm, req.Dim, len(req.Dests)),
		Contentions:    len(cont),
	}
	for i, c := range cont {
		if i == 8 {
			break
		}
		resp.ContentionSample = append(resp.ContentionSample, c.String())
	}
	return resp, nil
}

func (s *Server) handleTraffic(w http.ResponseWriter, r *http.Request) {
	serveCached(s, "traffic", w, r,
		func(req *TrafficRequest) error { return req.normalize(s.lim) },
		poolExec(s, s.runTraffic))
}

func (s *Server) runTraffic(req TrafficRequest) (any, error) {
	// The request is already canonical (generators expanded, dests drawn);
	// the engine re-canonicalizes under permissive limits, which is a no-op
	// on canonical specs, so the trace is a pure function of the cache key.
	s.mSims.Inc()
	res, err := traffic.RunBudget(&req.Spec, s.cfg.WatchdogSteps, s.cfg.WatchdogTime)
	if err != nil {
		return nil, err
	}
	return TrafficResponse{
		Request:    req,
		MakespanNS: res.MakespanNS,
		MakespanUS: us(event.Time(res.MakespanNS)),
		Ops:        res.Ops,
		Net:        res.Net,
	}, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	serveCached(s, "sweep", w, r,
		func(req *SweepRequest) error { return req.normalize(s.lim) },
		poolExec(s, s.runSweep))
}

// sweepGrid spaces points destination counts evenly across [1, 2^dim-1] —
// unlike workload.DestCounts it honors the cap even on small cubes, so
// service sweeps stay service-sized.
func sweepGrid(dim, points int) []int {
	max := 1<<dim - 1
	if points > max {
		points = max
	}
	if points < 2 || max < 2 {
		return []int{max}
	}
	out := make([]int, 0, points)
	for i := 0; i < points; i++ {
		v := 1 + i*(max-1)/(points-1)
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func (s *Server) runSweep(req SweepRequest) (any, error) {
	if err := req.normalize(s.lim); err != nil {
		return nil, err
	}
	algs := make([]core.Algorithm, len(req.Algorithms))
	for i, name := range req.Algorithms {
		a, err := core.ParseAlgorithm(name)
		if err != nil {
			return nil, badf("%v", err)
		}
		algs[i] = a
	}
	pm, err := parsePort(req.Port)
	if err != nil {
		return nil, err
	}
	grid := sweepGrid(req.Dim, req.Points)
	s.mSims.Inc()
	var tb *stats.Table
	switch req.Kind {
	case "stepwise":
		stat := workload.MaxSteps
		if req.Stat == "avg" {
			stat = workload.AvgSteps
		}
		// Workers: 1 — one pool worker per request; fan-out inside a job
		// would let one sweep starve the admission controller.
		tb = workload.Stepwise(workload.StepwiseConfig{
			Dim: req.Dim, Trials: req.Trials, Seed: req.Seed,
			Algorithms: algs, DestCounts: grid, Port: pm, Stat: stat,
			Workers: 1, Metrics: s.reg,
		})
	case "delay":
		p, err := parseMachine(req.Machine, pm)
		if err != nil {
			return nil, err
		}
		stat := workload.MaxDelay
		if req.Stat == "avg" {
			stat = workload.AvgDelay
		}
		// SimWorkers fans the trials of one point through the parallel
		// batch runner while point-level Workers stays 1, so a sweep job
		// still occupies exactly one pool worker.
		p.Workers = s.cfg.SimWorkers
		tb = workload.Delay(workload.DelayConfig{
			Dim: req.Dim, Trials: req.Trials, Seed: req.Seed, Bytes: req.Bytes,
			Params: p, Stat: stat, Algorithms: algs, DestCounts: grid,
			Workers: 1, Metrics: s.reg,
		})
	default:
		return nil, badf("unknown sweep kind %q", req.Kind)
	}
	resp := SweepResponse{
		Request: req,
		Title:   tb.Title,
		XLabel:  tb.XLabel,
		Columns: tb.Columns,
	}
	for _, row := range tb.Rows {
		resp.Rows = append(resp.Rows, SweepRow{X: row.X, Cells: row.Cells})
	}
	return resp, nil
}
