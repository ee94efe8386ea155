package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestSimWorkersByteIdentical pins the serving tier's slice of the
// differential wall: the same traffic and sweep requests produce
// byte-identical response bodies whether sweep trials run on one goroutine
// (SimWorkers 0) or fan out over four (SimWorkers 4); every other job runs
// on one goroutine either way.
func TestSimWorkersByteIdentical(t *testing.T) {
	reqs := []struct{ path, body string }{
		{"/v1/traffic", `{"dim":4,"seed":3,"arrivals":{"kind":"poisson","count":12,"rate_per_ms":8,"op":{"kind":"multicast","algorithm":"maxport","bytes":256,"dest_count":5}}}`},
		{"/v1/sweep", `{"kind":"delay","dim":4,"trials":4,"seed":9,"points":3,"algorithms":["u-cube","w-sort"]}`},
	}
	run := func(simWorkers int) [][]byte {
		_, ts := newTestServer(t, Config{SimWorkers: simWorkers, BatchWindow: -1})
		var out [][]byte
		for _, r := range reqs {
			resp, body := post(t, ts.URL, r.path, r.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("simWorkers=%d %s: status %d: %s", simWorkers, r.path, resp.StatusCode, body)
			}
			out = append(out, body)
		}
		return out
	}
	want := run(0)
	got := run(4)
	for i, r := range reqs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: response bodies differ between SimWorkers 0 and 4\n0: %s\n4: %s", r.path, want[i], got[i])
		}
	}
}
