// Command serve runs the simulation-as-a-service HTTP server: the full
// simulation surface (multicast, fault-tolerant delivery, collectives,
// tree analysis, sweeps) behind a deterministic result cache and bounded
// admission control. See internal/server for the API and semantics.
//
// Usage:
//
//	serve -addr :8080
//	serve -addr 127.0.0.1:0 -port-file serve.addr   # ephemeral port for CI
//	serve -addr :8080 -disk-dir /var/cache/hypercube -disk-mb 512
//	serve -addr :8080 -cluster 3                    # in-process cluster
//	serve -addr :8080 -route http://127.0.0.1:8081,http://127.0.0.1:8082
//
// With -disk-dir the result cache gains a disk tier: a restarted process
// answers previously seen requests from disk instead of re-simulating.
//
// With -cluster N the process becomes a self-contained cluster: N shard
// servers on loopback ephemeral ports plus a consistent-hash router on
// -addr, each shard with its own cache (and, under -disk-dir, its own
// disk subdirectory). With -route the process runs ONLY the router, over
// externally managed shard processes (comma-separated base URLs) — the
// subprocess-composed deployment.
//
// Shutdown is graceful: SIGTERM/SIGINT first fail readiness (/readyz) so
// routers stop sending work, wait -drain-grace, then stop accepting
// connections, drain in-flight simulations, and exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hypercube/internal/cluster"
	"hypercube/internal/event"
	"hypercube/internal/metrics"
	"hypercube/internal/server"
	"hypercube/internal/simcache"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen `address` (host:port; port 0 picks one)")
		portFile = flag.String("port-file", "", "write the actual listen address to `file` (for ephemeral ports)")
		workers  = flag.Int("workers", 0, "simulation worker count (0 = GOMAXPROCS)")
		simWork  = flag.Int("sim-workers", 0, "goroutines per /v1/sweep delay point for trial fan-out only (0/1 = single-threaded)")
		queue    = flag.Int("queue", 64, "admission queue depth (-1 = no queue, admit only onto an idle worker)")
		timeout  = flag.Duration("timeout", 30*time.Second, "wall-clock cap per request (queue wait + execution)")
		wdSteps  = flag.Int("watchdog-steps", 0, "per-request event-loop step budget (0 = event.DefaultMaxSteps)")
		wdTimeUS = flag.Int64("watchdog-us", 0, "per-request simulated-time budget in microseconds (0 = 30 sim seconds)")
		entries  = flag.Int("cache-entries", 0, "result cache entry budget (0 = 4096)")
		cacheMB  = flag.Int64("cache-mb", 0, "result cache byte budget in MiB (0 = 64)")

		diskDir  = flag.String("disk-dir", "", "disk cache tier `directory` (empty = memory only)")
		diskMB   = flag.Int64("disk-mb", 0, "disk tier byte budget in MiB (0 = 256)")
		batchWin = flag.Duration("batch-window", 0, "sweep-coalescing window for /v1/simulate (0 = 2ms, negative disables)")

		clusterN   = flag.Int("cluster", 0, "run an in-process cluster of `N` shards behind a router on -addr")
		route      = flag.String("route", "", "run only the router over these comma-separated shard base `urls`")
		vnodes     = flag.Int("vnodes", 0, "consistent-hash virtual nodes per shard (0 = 64)")
		ringSeed   = flag.Int64("ring-seed", 0, "consistent-hash ring placement seed")
		probe      = flag.Duration("probe", time.Second, "router shard health-probe interval")
		drainGrace = flag.Duration("drain-grace", 0, "pause between failing readiness and closing the listener")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("serve: unexpected arguments %q", flag.Args())
	}
	if *clusterN > 0 && *route != "" {
		log.Fatalf("serve: -cluster and -route are mutually exclusive")
	}

	shardConfig := func(disk *simcache.Disk) server.Config {
		return server.Config{
			Workers:       *workers,
			SimWorkers:    *simWork,
			QueueDepth:    *queue,
			Timeout:       *timeout,
			WatchdogSteps: *wdSteps,
			WatchdogTime:  event.Time(*wdTimeUS) * event.Microsecond,
			CacheEntries:  *entries,
			CacheBytes:    *cacheMB << 20,
			Disk:          disk,
			BatchWindow:   *batchWin,
			Metrics:       metrics.New(),
		}
	}
	openDisk := func(dir string, reg *metrics.Registry) *simcache.Disk {
		if dir == "" {
			return nil
		}
		d, err := simcache.OpenDisk(dir, *diskMB<<20, reg)
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		return d
	}
	routerConfig := func(shards []cluster.Shard) cluster.RouterConfig {
		return cluster.RouterConfig{
			Shards:        shards,
			VNodes:        *vnodes,
			Seed:          *ringSeed,
			ProbeInterval: *probe,
			Keyer:         server.NewKeyer(shardConfig(nil)),
			Metrics:       metrics.New(),
		}
	}

	// Assemble the front handler: a plain shard server, a pure router over
	// external shards, or an in-process cluster (router + N shards).
	var (
		handler http.Handler
		drain   func() // full drain, after the listener closed
		begin   func() // fail readiness, before the listener closes
		report  func()
	)
	switch {
	case *route != "":
		var shards []cluster.Shard
		for i, u := range strings.Split(*route, ",") {
			u = strings.TrimSpace(strings.TrimSuffix(u, "/"))
			if u == "" {
				continue
			}
			shards = append(shards, cluster.Shard{ID: fmt.Sprintf("s%d", i), URL: u})
		}
		r, err := cluster.NewRouter(routerConfig(shards))
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		log.Printf("serve: routing over %d shards", len(shards))
		handler = r.Handler()
		begin = func() {}
		drain = r.Close
		report = func() {
			snap := r.Registry().Snapshot()
			fmt.Printf("serve: router drained; %d requests, %d retries\n",
				snap.Counters["cluster_requests"], snap.Counters["cluster_retries"])
		}

	case *clusterN > 0:
		shards := make([]cluster.Shard, *clusterN)
		servers := make([]*server.Server, *clusterN)
		for i := range shards {
			reg := metrics.New()
			dir := ""
			if *diskDir != "" {
				dir = filepath.Join(*diskDir, fmt.Sprintf("shard-%d", i))
			}
			cfg := shardConfig(openDisk(dir, reg))
			cfg.Metrics = reg
			servers[i] = server.New(cfg)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatalf("serve: shard %d: %v", i, err)
			}
			go func(s *server.Server, ln net.Listener) {
				hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
				if err := hs.Serve(ln); err != http.ErrServerClosed {
					log.Printf("serve: shard: %v", err)
				}
			}(servers[i], ln)
			shards[i] = cluster.Shard{ID: fmt.Sprintf("s%d", i), URL: "http://" + ln.Addr().String()}
			log.Printf("serve: shard %s on %s", shards[i].ID, shards[i].URL)
		}
		r, err := cluster.NewRouter(routerConfig(shards))
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		handler = r.Handler()
		begin = func() {
			for _, s := range servers {
				s.BeginDrain()
			}
		}
		drain = func() {
			r.Close()
			for _, s := range servers {
				s.Drain()
			}
		}
		report = func() {
			var reqs, sims, hits, disk int64
			for _, s := range servers {
				snap := s.Registry().Snapshot()
				reqs += snap.Counters["server_requests"]
				sims += snap.Counters["server_sims_executed"]
				hits += snap.Counters["simcache_hits"]
				disk += snap.Counters["simcache_disk_hits"]
			}
			fmt.Printf("serve: cluster drained; %d shard requests, %d simulations executed, %d memory hits, %d disk hits\n",
				reqs, sims, hits, disk)
		}

	default:
		reg := metrics.New()
		cfg := shardConfig(openDisk(*diskDir, reg))
		cfg.Metrics = reg
		s := server.New(cfg)
		handler = s.Handler()
		begin = s.BeginDrain
		drain = s.Drain
		report = func() {
			snap := s.Registry().Snapshot()
			fmt.Printf("serve: drained; %d requests, %d simulations executed, %d cache hits, %d disk hits\n",
				snap.Counters["server_requests"], snap.Counters["server_sims_executed"],
				snap.Counters["simcache_hits"], snap.Counters["simcache_disk_hits"])
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	if *portFile != "" {
		// Written only once the socket is live, so a watcher that sees the
		// file can connect immediately.
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("serve: writing -port-file: %v", err)
		}
	}
	log.Printf("serve: listening on %s", ln.Addr())

	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("serve: shutting down")
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	}

	// Drain sequence: fail readiness first so routers stop sending new
	// work, give them -drain-grace to notice, then stop accepting
	// connections and drain the pool with the same budget requests get
	// under load.
	begin()
	if *drainGrace > 0 {
		time.Sleep(*drainGrace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *timeout+5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("serve: shutdown: %v", err)
	}
	drain()
	report()
}
