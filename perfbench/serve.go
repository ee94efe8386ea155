package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypercube/internal/cluster"
	"hypercube/internal/metrics"
	"hypercube/internal/server"
	"hypercube/internal/simcache"
)

const (
	serveShards  = 2
	serveClients = 2
	// serveCacheEntries is each shard's memory-tier entry budget, far
	// below the keys a run touches, so evicted keys come back from disk.
	serveCacheEntries = 256
	// serveKeys is the key space. It is a multiple of the endpoint mix's
	// period (480), so every seed sees the same endpoint pattern.
	serveKeys = 480 * 2048
	// serveZipfS skews the draw: hot keys hit memory, warm keys come back
	// from disk, and the tail keeps missing for the whole run.
	serveZipfS  = 1.2
	serveSeqLen = 1 << 20
)

// request is one /v1 POST.
type request struct {
	path, body string
}

// serveRequest is key k of cmd/loadgen's endpoint mix (simulate :
// collective : tree : traffic = 4:2:1:1), with every request seed offset
// by the workload seed so each seed draws its own inputs.
func serveRequest(k int, seed int64) request {
	ops := []string{"scatter", "gather", "allgather", "reduce", "barrier", "allreduce"}
	algs := []string{"w-sort", "u-cube", "sf-binomial", "maxport"}
	s := seed*serveKeys + int64(k)
	switch k % 8 {
	case 0, 1, 2, 3:
		return request{"/v1/simulate", fmt.Sprintf(
			`{"dim":6,"algorithm":%q,"src":0,"dest_count":%d,"seed":%d,"bytes":%d}`,
			algs[k%len(algs)], 5+k%40, s, 256<<(k%4))}
	case 4:
		return request{"/v1/collective", fmt.Sprintf(
			`{"op":%q,"dim":5,"root":0,"bytes":%d}`, ops[k%len(ops)], 512+128*(k%8))}
	case 5:
		data := []string{
			`"op":"reduce-scatter"`,
			`"op":"allreduce","variant":"hd"`,
			`"op":"allreduce","variant":"ring"`,
			`"op":"alltoall"`,
		}
		return request{"/v1/collective", fmt.Sprintf(
			`{%s,"dim":4,"bytes":%d,"seed":%d}`, data[k%len(data)], 64+32*(k%4), s)}
	case 6:
		return request{"/v1/tree", fmt.Sprintf(
			`{"dim":6,"algorithm":%q,"src":0,"dest_count":%d,"seed":%d}`,
			algs[k%len(algs)], 8+k%32, s)}
	}
	if (k/8)%2 == 0 && (k/16)%2 == 1 {
		return request{"/v1/traffic", fmt.Sprintf(
			`{"dim":4,"seed":%d,"arrivals":{"kind":"poisson","count":%d,"rate_per_ms":%d,"op":{"kind":"allreduce","bytes":256}}}`,
			s, 4+k%4, 1+k%4)}
	}
	faults := ""
	if (k/8)%2 == 1 {
		faults = fmt.Sprintf(`,"faults":[{"kind":"link","count":%d,"seed":%d}]`, 1+k%3, s)
	}
	return request{"/v1/traffic", fmt.Sprintf(
		`{"dim":5,"seed":%d,"arrivals":{"kind":"poisson","count":%d,"rate_per_ms":%d,"op":{"kind":"multicast","algorithm":%q,"dest_count":%d,"bytes":1024}}%s}`,
		s, 8+k%8, 1+k%8, algs[k%len(algs)], 4+k%12, faults)}
}

// keySequence draws the run's request keys, Zipf-skewed over the key
// space.
func keySequence(seed int64) []int32 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), serveZipfS, 1, serveKeys-1)
	seq := make([]int32, serveSeqLen)
	for i := range seq {
		seq[i] = int32(z.Uint64())
	}
	return seq
}

// httpSpan is one request's pass through a wrapped handler.
type httpSpan struct {
	layer, path, body string
	start, end        time.Time
	cache             string
}

// spanLog collects the wrapped handlers' spans. Safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	spans []httpSpan
}

// wrap times h's /v1 requests as layer spans; nil log returns h as is.
func (l *spanLog) wrap(layer string, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !strings.HasPrefix(req.URL.Path, "/v1/") {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, req)
		end := time.Now()
		l.mu.Lock()
		l.spans = append(l.spans, httpSpan{layer: layer, path: req.URL.Path, body: string(body),
			start: start, end: end, cache: w.Header().Get("X-Cache")})
		l.mu.Unlock()
	})
}

// serveCluster is a router over two shards, each on its own loopback
// listener with a memory cache and a temp-dir disk tier.
type serveCluster struct {
	dir     string
	servers []*server.Server
	shards  []*httptest.Server
	router  *cluster.Router
	front   *httptest.Server
}

func shardConfig() server.Config { return server.Config{CacheEntries: serveCacheEntries} }

// bootCluster starts the cluster and returns once every shard and the
// router answer /readyz.
func bootCluster(parent string, log *spanLog) (*serveCluster, error) {
	dir, err := os.MkdirTemp(parent, "serve-")
	if err != nil {
		return nil, err
	}
	c := &serveCluster{dir: dir}
	var shards []cluster.Shard
	for i := 0; i < serveShards; i++ {
		reg := metrics.New()
		disk, err := simcache.OpenDisk(fmt.Sprintf("%s/shard-%d", dir, i), 0, reg)
		if err != nil {
			c.close()
			return nil, err
		}
		cfg := shardConfig()
		cfg.Disk, cfg.Metrics = disk, reg
		s := server.New(cfg)
		ts := httptest.NewServer(log.wrap("server.handle", s.Handler()))
		c.servers = append(c.servers, s)
		c.shards = append(c.shards, ts)
		shards = append(shards, cluster.Shard{ID: fmt.Sprintf("s%d", i), URL: ts.URL})
	}
	c.router, err = cluster.NewRouter(cluster.RouterConfig{
		Shards:  shards,
		Keyer:   server.NewKeyer(shardConfig()),
		Metrics: metrics.New(),
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.front = httptest.NewServer(log.wrap("cluster.route", c.router.Handler()))
	urls := []string{c.front.URL}
	for _, ts := range c.shards {
		urls = append(urls, ts.URL)
	}
	for _, u := range urls {
		if err := awaitReady(u); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func awaitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: %s never became ready (%v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *serveCluster) close() {
	if c.front != nil {
		c.front.Close()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, ts := range c.shards {
		ts.Close()
	}
	for _, s := range c.servers {
		s.Drain()
	}
	os.RemoveAll(c.dir)
}

// counter sums one registry counter over the shards.
func (c *serveCluster) counter(name string) float64 {
	var n int64
	for _, s := range c.servers {
		n += s.Registry().Counter(name).Value()
	}
	return float64(n)
}

// sample is one client request: its sequence position, send and
// last-byte instants, and what came back.
type sample struct {
	n          int
	start, end time.Time
	status     int
	cache      string
	sum        [sha256.Size]byte
}

// load drives the closed loop: serveClients clients, each sending its next
// request only once the previous reply is fully read, walking seq from
// position from until position limit or until the time is up (0 means no
// time limit). It returns the samples in sequence order and each client's
// busy wall time.
func load(url string, seq []int32, seed int64, from, limit int, dur time.Duration) ([]sample, []time.Duration, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		all   []sample
		walls = make([]time.Duration, serveClients)
		errs  = make([]error, serveClients)
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			defer func() {
				walls[c] = time.Since(start)
				mu.Lock()
				all = append(all, mine...)
				mu.Unlock()
			}()
			for {
				if dur > 0 && time.Since(start) >= dur {
					return
				}
				n := from + int(next.Add(1)) - 1
				if n >= limit {
					return
				}
				req := serveRequest(int(seq[n]), seed)
				s := sample{n: n, start: time.Now()}
				resp, err := client.Post(url+req.path, "application/json", strings.NewReader(req.body))
				if err != nil {
					errs[c] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				s.end = time.Now()
				if err != nil {
					errs[c] = err
					return
				}
				s.status, s.cache, s.sum = resp.StatusCode, resp.Header.Get("X-Cache"), sha256.Sum256(body)
				mine = append(mine, s)
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i].n < all[j].n })
	return all, walls, errors.Join(errs...)
}

// checkResponses counts one operation per request: it must be a 200 whose
// body is byte-equal to the reference body, computed outside the timed
// region by a solo, diskless server with batching disabled.
func checkResponses(r *run, samples []sample, seq []int32) {
	ref := server.New(server.Config{BatchWindow: -1})
	defer ref.Drain()
	keys := map[int32]bool{}
	for _, s := range samples {
		keys[seq[s.n]] = true
	}
	want := make(map[int32][sha256.Size]byte, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int32)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				req := serveRequest(int(k), r.opts.seed)
				rec := httptest.NewRecorder()
				ref.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
				sum := sha256.Sum256(rec.Body.Bytes())
				if rec.Code != http.StatusOK {
					sum = [sha256.Size]byte{}
				}
				mu.Lock()
				want[k] = sum
				mu.Unlock()
			}
		}()
	}
	for k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	for _, s := range samples {
		k := seq[s.n]
		switch {
		case s.status != http.StatusOK:
			r.op(fmt.Errorf("serve: request %d (key %d) answered %d", s.n, k, s.status))
		case s.sum != want[k]:
			r.op(fmt.Errorf("serve: request %d (key %d) body differs from the reference", s.n, k))
		default:
			r.op(nil)
		}
	}
	r.notes["distinct_keys"] = len(keys)
}

func runServe(r *run) error {
	var (
		seq    []int32
		booted *serveCluster
	)
	st := newSetupTimer(r.opts.seconds, func() (err error) {
		seq = keySequence(r.opts.seed)
		booted, err = bootCluster(r.opts.out, nil)
		return err
	})
	// spare times one more set-up and closes its cluster, untimed.
	spare := func() error {
		err := st.time()
		if booted != nil {
			booted.close()
			booted = nil
		}
		return err
	}
	for i := 0; i < 2; i++ {
		if err := spare(); err != nil {
			return err
		}
	}
	if err := st.time(); err != nil {
		return err
	}
	c := booted
	// The load runs in segments, with a spare set-up timed between two
	// segments; the clients go on along the key sequence.
	var (
		samples []sample
		wall    time.Duration
		alloc   uint64
		ms      runtime.MemStats
	)
	budget := time.Duration(r.opts.seconds * float64(time.Second))
	start := time.Now()
	for len(samples) < len(seq) {
		seg := min(budget-time.Since(start), st.every)
		if seg <= 0 {
			break
		}
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t0 := time.Now()
		got, _, err := load(c.front.URL, seq, r.opts.seed, len(samples), len(seq), seg)
		wall += time.Since(t0)
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - a0
		samples = append(samples, got...)
		if err == nil && time.Since(start) < budget {
			err = spare()
		}
		if err != nil {
			c.close()
			return err
		}
	}
	c.close()
	checkResponses(r, samples, seq)
	if r.opts.trace {
		return traceServe(r, seq, len(samples), wall)
	}
	lats := make([]float64, len(samples))
	for i, s := range samples {
		lats[i] = s.end.Sub(s.start).Seconds() * 1e3
	}
	st.report(r)
	r.set("ops_per_s", float64(len(samples))/wall.Seconds())
	r.set("latency_p50_ms", quantile(lats, 0.5), lats...)
	r.set("latency_p95_ms", quantile(lats, 0.95), lats...)
	// A serve pass is 1000 requests.
	r.set("alloc_mb", float64(alloc)/1e6/float64(len(samples))*1000)
	r.set("success_frac", 1-float64(r.failed)/float64(r.attempted))
	r.notes["requests"] = len(samples)
	r.notes["cache"] = cacheCounts(samples)
	return nil
}

func cacheCounts(samples []sample) map[string]int {
	m := map[string]int{}
	for _, s := range samples {
		m[s.cache]++
	}
	return m
}

// traceServe replays the untraced run's first n requests on a fresh
// cluster whose router and shard handlers are wrapped in timing
// middleware, matches each shard span to its router span and each router
// span to its client request by body cache key and time containment, and
// attributes the clients' busy time to transport, route and handle.
func traceServe(r *run, seq []int32, n int, untraced time.Duration) error {
	log := &spanLog{}
	c, err := bootCluster(r.opts.out, log)
	if err != nil {
		return err
	}
	t0 := time.Now()
	samples, walls, err := load(c.front.URL, seq, r.opts.seed, 0, n, 0)
	traced := time.Since(t0)
	defer c.close()
	if err != nil {
		return err
	}
	checkResponses(r, samples, seq)
	for _, name := range []string{"sims_executed", "batched_points", "jobs_shed"} {
		r.set("server."+name, c.counter("server_"+name))
	}
	r.set("simcache.disk_writes", c.counter("simcache_disk_writes"))
	r.set("simcache.evictions", c.counter("simcache_evictions"))

	keyer := server.NewKeyer(shardConfig())
	keys := map[string]string{}
	keyOf := func(path, body string) string {
		if k, ok := keys[path+"\x00"+body]; ok {
			return k
		}
		k, err := keyer.Key(path, []byte(body))
		if err != nil {
			k = "invalid:" + path + body
		}
		keys[path+"\x00"+body] = k
		return k
	}

	rec := newRecorder()
	rec.t0 = t0
	pt := matchSpans(rec, log.spans, samples, func(s sample) (request, string) {
		req := serveRequest(int(seq[s.n]), r.opts.seed)
		return req, keyOf(req.path, req.body)
	}, keyOf)
	var busy time.Duration
	for _, w := range walls {
		busy += w
	}
	// The router's keying, replayed on every request body, hits included.
	k0 := time.Now()
	for _, s := range samples {
		req := serveRequest(int(seq[s.n]), r.opts.seed)
		if _, err := keyer.Key(req.path, []byte(req.body)); err != nil {
			return err
		}
	}
	keyNS := time.Since(k0)
	rec.add(span{Name: "server.key", Start: rec.since(k0), End: rec.since(k0.Add(keyNS)), Calls: len(samples)})

	r.spans = rec.spans
	r.attrib = attribute("serve", r.spans, func(s span) string {
		switch {
		case s.Name == "client.request" && s.Tag == "":
			return "client.transport"
		case s.Name == "cluster.route":
			return "cluster.route"
		case s.Name == "server.handle":
			return "server.handle." + s.Tag
		}
		return ""
	}, int64(busy), int64(untraced)*serveClients)
	r.attrib.Overhead = traced.Seconds()/untraced.Seconds() - 1
	r.attrib.Note = fmt.Sprintf("%d requests replayed on %d clients; total is the clients' busy time; %d unmatched", len(samples), serveClients, pt.unmatched)
	a := r.attrib
	r.set("server.key.us_per_call", float64(keyNS)/1e3/float64(len(samples)))
	r.set("client.transport.us_p50", quantile(pt.transport, 0.5))
	r.set("client.transport.share", a.row("client.transport").Share)
	r.set("cluster.route.us_p50", quantile(pt.route, 0.5))
	r.set("cluster.route.share", a.row("cluster.route").Share)
	var handleShare float64
	for _, row := range a.Rows {
		if strings.HasPrefix(row.Layer, "server.handle.") {
			handleShare += row.Share
		}
	}
	r.set("server.handle.share", handleShare)
	for _, k := range []string{"hit", "disk", "miss", "miss.simulate", "miss.collective", "miss.tree", "miss.traffic"} {
		r.set("server.handle."+k+".us_p50", quantile(pt.handle[k], 0.5))
	}
	counts := cacheCounts(samples)
	for _, k := range []string{"hit", "disk", "miss", "dedup"} {
		r.set("simcache."+k+"_frac", float64(counts[k])/float64(len(samples)))
	}
	r.set("cluster.remainder_share", a.Remainder)
	r.set("cluster.trace_overhead_frac", a.Overhead)
	r.notes["requests"] = len(samples)
	r.notes["unmatched"] = pt.unmatched
	r.notes["cache"] = counts
	return nil
}

// pathTimes splits matched requests into their self times, in µs: client
// total minus router span (transport), router span minus shard span
// (route), and the shard span by X-Cache, with misses also by endpoint.
type pathTimes struct {
	transport, route []float64
	handle           map[string][]float64
	unmatched        int
}

// matchSpans pairs each client request with its router span, and that
// with its shard span, by body cache key and time containment, and
// records the three as nested spans in rec. A request left unmatched is
// tagged so that its time counts as remainder.
func matchSpans(rec *recorder, spans []httpSpan, samples []sample,
	reqOf func(sample) (request, string), keyOf func(path, body string) string) pathTimes {
	byKey := map[string][]int{} // layer and key -> indices into spans
	for i, hs := range spans {
		k := hs.layer + "\x00" + keyOf(hs.path, hs.body)
		byKey[k] = append(byKey[k], i)
	}
	used := make([]bool, len(spans))
	// claim takes the unused span of layer and key inside [start, end]
	// that ends first. With requests claimed in order of their end, this
	// pairs concurrent requests for one key with their own spans.
	claim := func(layer, key string, start, end time.Time) int {
		best := -1
		for _, i := range byKey[layer+"\x00"+key] {
			hs := spans[i]
			if !used[i] && !hs.start.Before(start) && !hs.end.After(end) &&
				(best < 0 || hs.end.Before(spans[best].end)) {
				best = i
			}
		}
		if best >= 0 {
			used[best] = true
		}
		return best
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	pt := pathTimes{handle: map[string][]float64{}}
	byEnd := append([]sample(nil), samples...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].end.Before(byEnd[j].end) })
	for _, s := range byEnd {
		req, key := reqOf(s)
		cid := rec.add(span{Name: "client.request", Start: rec.since(s.start), End: rec.since(s.end)})
		ri, si := claim("cluster.route", key, s.start, s.end), -1
		if ri >= 0 {
			si = claim("server.handle", key, spans[ri].start, spans[ri].end)
		}
		if si < 0 {
			pt.unmatched++
			rec.spans[cid-1].Tag = "unmatched"
			continue
		}
		rs, ss := spans[ri], spans[si]
		rid := rec.add(span{Parent: cid, Name: "cluster.route", Start: rec.since(rs.start), End: rec.since(rs.end)})
		rec.add(span{Parent: rid, Name: "server.handle", Tag: ss.cache, Start: rec.since(ss.start), End: rec.since(ss.end)})
		pt.transport = append(pt.transport, us(s.end.Sub(s.start)-rs.end.Sub(rs.start)))
		pt.route = append(pt.route, us(rs.end.Sub(rs.start)-ss.end.Sub(ss.start)))
		h := us(ss.end.Sub(ss.start))
		pt.handle[ss.cache] = append(pt.handle[ss.cache], h)
		if ss.cache == "miss" {
			ep := "miss." + strings.TrimPrefix(req.path, "/v1/")
			pt.handle[ep] = append(pt.handle[ep], h)
		}
	}
	return pt
}
