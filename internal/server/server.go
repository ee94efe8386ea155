// Package server exposes the whole simulation surface of this repository
// — multicast execution, the fault-tolerant protocol, the collective
// suite, tree/schedule/contention analysis, and small figure-style sweeps
// — as a JSON-over-HTTP service.
//
// The serving path is built for determinism and load:
//
//   - Every simulation here is a pure function of its canonicalized
//     request, so responses are encoded once and cached by content hash
//     (internal/simcache). Repeated and concurrent identical requests get
//     byte-identical bodies; N identical concurrent requests run exactly
//     one simulation (singleflight). The X-Cache response header reports
//     hit, miss, or dedup.
//
//   - Admission control is a bounded worker pool over a bounded queue: a
//     full queue sheds load with an immediate 429 instead of queuing
//     without bound, and in-flight work is never disturbed.
//
//   - Per-request deadlines ride the discrete-event watchdog
//     (event.Queue.RunBudget): a simulation that exceeds the server's
//     step or simulated-time budget aborts with a structured watchdog
//     error instead of holding a worker hostage. A wall-clock timeout
//     backstops the watchdog.
//
//   - Observability: /healthz for liveness, /metrics in Prometheus text
//     format, /metrics/json as a hypercube-metrics/v1 document; the
//     registry aggregates cache, pool, HTTP, and simulator instruments.
//
// Shutdown is graceful: Drain stops admission (503 for new work) and
// waits for accepted jobs; cmd/serve wires it to SIGTERM behind
// http.Server.Shutdown.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"hypercube/internal/event"
	"hypercube/internal/metrics"
	"hypercube/internal/simcache"
)

// Config sizes the server. The zero value selects every default.
type Config struct {
	// Workers is the simulation worker count (default GOMAXPROCS).
	Workers int
	// SimWorkers fans the trials of one /v1/sweep delay point across
	// this many goroutines (ncube.Params.Workers); it drives sweep trial
	// fan-out only, and every other job runs on one goroutine. 0 or 1
	// keeps sweeps single-threaded — the default, so job-level
	// parallelism (Workers) is the primary throughput knob and one job
	// cannot starve the pool. Responses are byte-identical at every
	// setting; the differential test wall pins this.
	SimWorkers int
	// QueueDepth bounds the backlog of admitted-but-not-running jobs
	// (default 64; <0 means 0, i.e. admit only onto an idle worker).
	QueueDepth int
	// CacheEntries / CacheBytes bound the result cache (defaults from
	// simcache: 4096 entries, 64 MiB).
	CacheEntries int
	CacheBytes   int64
	// Disk, when non-nil, is the second-level result cache tier: checked
	// on memory miss before simulating, written on every fill, so a
	// restarted process answers previously seen requests from disk.
	Disk *simcache.Disk
	// BatchWindow is how long the first /v1/simulate request of a sweep
	// family (same canonical request up to the destination set) is held so
	// same-family arrivals coalesce into one pooled batch (default 2ms;
	// negative disables coalescing — every request is its own batch).
	BatchWindow time.Duration
	// MaxBatch caps one coalesced batch; a full batch flushes without
	// waiting out the window (default 32).
	MaxBatch int
	// BatchWorkers is the intra-batch point parallelism (default 1 — one
	// pool worker per batch, mirroring sweep jobs, so a batch cannot
	// starve the admission controller).
	BatchWorkers int
	// Timeout is the wall-clock cap on one request's queue wait plus
	// execution (default 30s).
	Timeout time.Duration
	// WatchdogSteps / WatchdogTime are the per-request discrete-event
	// budgets (defaults: event.DefaultMaxSteps, 30 simulated seconds).
	WatchdogSteps int
	WatchdogTime  event.Time
	// MaxDim / MaxBytes bound a single simulation request (defaults 12
	// and 1 MiB). Sweep endpoints are tighter: MaxSweepDim (default 8),
	// MaxSweepTrials (default 50), MaxSweepPoints (default 16).
	MaxDim         int
	MaxBytes       int
	MaxSweepDim    int
	MaxSweepTrials int
	MaxSweepPoints int
	// MaxTrafficOps bounds a traffic scenario's op count after arrival
	// expansion (default 256) — the knob that keeps /v1/traffic jobs
	// service-sized.
	MaxTrafficOps int
	// MaxDataBytes bounds one data-carrying collective's synthesized
	// payload footprint (default 64 MiB) — data ops allocate real
	// memory, unlike timing-only ops.
	MaxDataBytes int64
	// Metrics receives every instrument; nil allocates a private
	// registry (the server always measures itself).
	Metrics *metrics.Registry
}

// limits derives the request-shape admission policy from a Config whose
// defaults are already set. The exported Keyer shares it with New, so a
// router process canonicalizes requests exactly as its shards do.
func (c Config) limits() limits {
	return limits{
		maxDim:         c.MaxDim,
		maxBytes:       c.MaxBytes,
		maxSweepDim:    c.MaxSweepDim,
		maxSweepTrials: c.MaxSweepTrials,
		maxSweepPoints: c.MaxSweepPoints,
		maxTrafficOps:  c.MaxTrafficOps,
		maxDataBytes:   c.MaxDataBytes,
	}
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = 1
	}
	if c.WatchdogTime == 0 {
		c.WatchdogTime = 30 * event.Second
	}
	if c.MaxDim == 0 {
		c.MaxDim = 12
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 1 << 20
	}
	if c.MaxSweepDim == 0 {
		c.MaxSweepDim = 8
	}
	if c.MaxSweepTrials == 0 {
		c.MaxSweepTrials = 50
	}
	if c.MaxSweepPoints == 0 {
		c.MaxSweepPoints = 16
	}
	if c.MaxTrafficOps == 0 {
		c.MaxTrafficOps = 256
	}
	if c.MaxDataBytes == 0 {
		c.MaxDataBytes = 1 << 26
	}
	if c.Metrics == nil {
		c.Metrics = metrics.New()
	}
}

// errTimeout is the wall-clock backstop tripping (HTTP 503): the request
// waited in queue plus ran longer than Config.Timeout.
var errTimeout = errors.New("server: request timed out")

// Server is the serving subsystem. Create with New, expose with Handler,
// stop with Drain.
type Server struct {
	cfg      Config
	lim      limits
	reg      *metrics.Registry
	cache    *simcache.Cache
	pool     *pool
	coalesce *coalescer
	mux      *http.ServeMux
	start    time.Time
	draining atomic.Bool

	mRequests, mOK, mErrors *metrics.Counter
	mWatchdog               *metrics.Counter
	mSims                   *metrics.Counter
	mLate                   *metrics.Counter
	hLatency                *metrics.Histogram

	// testHook, when set by tests, runs at the start of every pooled
	// job — it lets tests hold jobs in flight deterministically.
	testHook func()
}

// New creates a server from cfg.
func New(cfg Config) *Server {
	cfg.setDefaults()
	reg := cfg.Metrics
	s := &Server{
		cfg: cfg,
		lim: cfg.limits(),
		reg: reg,
		cache: simcache.New(simcache.Config{
			MaxEntries: cfg.CacheEntries,
			MaxBytes:   cfg.CacheBytes,
			Disk:       cfg.Disk,
			Metrics:    reg,
		}),
		pool:  newPool(cfg.Workers, cfg.QueueDepth, reg),
		mux:   http.NewServeMux(),
		start: time.Now(),

		mRequests: reg.Counter("server_requests"),
		mOK:       reg.Counter("server_responses_ok"),
		mErrors:   reg.Counter("server_responses_error"),
		mWatchdog: reg.Counter("server_watchdog_aborts"),
		mSims:     reg.Counter("server_sims_executed"),
		mLate:     reg.Counter("server_late_cache_inserts"),
		hLatency:  reg.Histogram("server_request_us"),
	}
	s.coalesce = newCoalescer(s)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics/json", s.handleMetricsJSON)
	s.mux.HandleFunc("/v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("/v1/simulate/fault-tolerant", s.handleFaultTolerant)
	s.mux.HandleFunc("/v1/collective", s.handleCollective)
	s.mux.HandleFunc("/v1/tree", s.handleTree)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/traffic", s.handleTraffic)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// BeginDrain marks the server draining without waiting: /readyz starts
// failing (so a cluster router stops routing here) and new simulation
// work is refused with 503, while in-flight requests run to completion
// and /healthz keeps answering. Call it first, give load balancers a
// beat to notice, then finish with Drain.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain stops admitting simulation work (new requests get 503) and blocks
// until every accepted job has finished. Call after http.Server.Shutdown
// has stopped accepting connections.
func (s *Server) Drain() {
	s.BeginDrain()
	s.pool.drain()
}

// runOnPool submits job through admission control and waits for its
// result or the wall-clock timeout. Panics inside job are converted to
// errors (watchdog diagnostics keep their type, even when wrapped by an
// intermediate layer such as a workload sweep) so one poisonous request
// cannot kill a worker.
func (s *Server) runOnPool(key string, job func() ([]byte, error)) ([]byte, error) {
	ch := make(chan outcome, 1) // buffered: the worker never blocks on an abandoned request
	wrapped := func() {
		defer func() {
			if v := recover(); v != nil {
				ch <- outcome{nil, panicError(v)}
			}
		}()
		if s.testHook != nil {
			s.testHook()
		}
		body, err := job()
		ch <- outcome{body, err}
	}
	if err := s.pool.submit(wrapped); err != nil {
		return nil, err
	}
	return s.await(key, ch)
}

// await waits for a submitted job's outcome under the wall-clock timeout.
// Shared by the direct pool path and the coalescer, so batched requests
// keep exactly the per-request deadline and salvage semantics of solo
// ones.
func (s *Server) await(key string, ch chan outcome) ([]byte, error) {
	timer := time.NewTimer(s.cfg.Timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.body, o.err
	case <-timer.C:
		// The job keeps running on its worker; this request is abandoned,
		// and Cache.Do settles the flight with errTimeout. Salvage the
		// eventual result so later identical requests hit the cache instead
		// of stacking duplicate work on an already-busy pool.
		go func() {
			if o := <-ch; o.err == nil && o.body != nil {
				s.cache.Put(key, o.body)
				s.mLate.Inc()
			}
		}()
		return nil, errTimeout
	}
}

// panicError maps a recovered panic value onto the error taxonomy: watchdog
// diagnostics keep their type — even when an intermediate layer repanicked
// with a wrapper error (errors.As walks Unwrap) — and everything else
// becomes a one-line error with any goroutine stack trimmed off, so raw
// stacks never reach a client-facing body.
func panicError(v any) error {
	if d, ok := v.(*event.Diagnostic); ok {
		return d
	}
	if err, ok := v.(error); ok {
		var d *event.Diagnostic
		if errors.As(err, &d) {
			return d
		}
	}
	msg := fmt.Sprintf("%v", v)
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return fmt.Errorf("server: simulation panicked: %s", msg)
}

// poolExec adapts a run function into the standard execution path behind
// the cache: one pool job per request, encoded under the request's key.
func poolExec[Req any](s *Server, run func(Req) (any, error)) func(string, Req) ([]byte, error) {
	return func(key string, req Req) ([]byte, error) {
		return s.runOnPool(key, func() ([]byte, error) {
			resp, err := run(req)
			if err != nil {
				return nil, err
			}
			return encodeBody(resp)
		})
	}
}

// serveCached is the shared POST pipeline: decode strictly, normalize into
// canonical form, then answer from the cache — computing at most once per
// key via exec (usually poolExec; /v1/simulate routes through the
// coalescer instead). exec's encoded bytes are what gets cached, so hits,
// dedup joins, and misses all serve identical bodies.
func serveCached[Req any](s *Server, kind string, w http.ResponseWriter, r *http.Request,
	normalize func(*Req) error, exec func(key string, req Req) ([]byte, error)) {
	started := time.Now()
	s.mRequests.Inc()
	// Latency covers every outcome — shed, timed-out, and errored requests
	// included — so the histogram stays honest under load.
	defer func() { s.hLatency.Observe(time.Since(started).Microseconds()) }()
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "bad_request", fmt.Sprintf("%s requires POST", kind), nil)
		return
	}
	var req Req
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("decoding request: %v", err), nil)
		return
	}
	if err := normalize(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	key, err := simcache.Key(kind, req)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", errDraining.Error(), nil)
		return
	}
	body, src, err := s.cache.Do(key, func() ([]byte, error) {
		return exec(key, req)
	})
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", src.String())
	w.Write(body)
	s.mOK.Inc()
}

// encodeBody is the single response encoder: indented JSON with a trailing
// newline. One encoder, deterministic field order, no maps — the
// foundation of the byte-identical guarantee.
func encodeBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("server: encoding response: %v", err)
	}
	return append(b, '\n'), nil
}

// writeRunError maps an execution failure onto the error taxonomy.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	var diag *event.Diagnostic
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, "queue_full", err.Error(), nil)
	case errors.Is(err, errDraining):
		s.writeError(w, http.StatusServiceUnavailable, "draining", err.Error(), nil)
	case errors.Is(err, errTimeout):
		s.writeError(w, http.StatusServiceUnavailable, "deadline", err.Error(), nil)
	case errors.As(err, &diag):
		s.mWatchdog.Inc()
		s.writeError(w, http.StatusGatewayTimeout, "watchdog",
			"simulation exceeded its event-loop budget", &WatchdogInfo{
				Reason:  diag.Reason,
				Steps:   diag.Steps,
				NowNS:   int64(diag.Now),
				Pending: diag.Pending,
				Detail:  diag.Detail,
			})
	default:
		var bad badRequestError
		if errors.As(err, &bad) {
			s.writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
			return
		}
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string, wd *WatchdogInfo) {
	s.mErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := encodeBody(ErrorResponse{Error: msg, Code: code, Watchdog: wd})
	w.Write(body)
}

// healthzResponse is the /healthz body. /healthz is LIVENESS: it answers
// 200 for as long as the process can serve HTTP at all, draining
// included — restarting a shard that is deliberately draining would turn
// every graceful shutdown into an outage. Routability is /readyz.
type healthzResponse struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueCap      int     `json:"queue_cap"`
	QueueLen      int     `json:"queue_len"`
	CacheEntries  int     `json:"cache_entries"`
	CacheBytes    int64   `json:"cache_bytes"`
	DiskEntries   int     `json:"disk_entries,omitempty"`
	DiskBytes     int64   `json:"disk_bytes,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	resp := healthzResponse{
		Status:        status,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		QueueCap:      s.cfg.QueueDepth,
		QueueLen:      s.pool.queueLen(),
		CacheEntries:  s.cache.Len(),
		CacheBytes:    s.cache.Bytes(),
	}
	if s.cfg.Disk != nil {
		resp.DiskEntries = s.cfg.Disk.Len()
		resp.DiskBytes = s.cfg.Disk.Bytes()
	}
	body, _ := encodeBody(resp)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// readyzResponse is the /readyz body. /readyz is READINESS: 200 only
// while the server is accepting new simulation work. BeginDrain flips it
// to 503 while in-flight requests finish, so routers stop sending traffic
// before the pool closes.
type readyzResponse struct {
	Ready  bool   `json:"ready"`
	Status string `json:"status"` // "ok" or "draining"
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := readyzResponse{Ready: true, Status: "ok"}
	code := http.StatusOK
	if s.draining.Load() {
		resp = readyzResponse{Ready: false, Status: "draining"}
		code = http.StatusServiceUnavailable
	}
	body, _ := encodeBody(resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	metrics.WritePrometheus(w, s.reg.Snapshot())
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	doc := s.reg.Doc("serve", time.Since(s.start).Seconds(), nil)
	body, err := encodeBody(doc)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}
