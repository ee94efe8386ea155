package traffic

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hypercube/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the traffic-family files under results/")

// TestTrafficResultsReproduce regenerates the 18 traffic-family files of
// results/ with the configurations cmd/traffic, cmd/chaos and
// cmd/lanespec use under -dir at their default flags, and byte-compares
// each with the committed file. Any engine change that moves a simulated
// number breaks it. Regenerate with: go test ./internal/traffic -run
// TestTrafficResultsReproduce -update (only after a deliberate, reviewed
// change to what the scenarios simulate).
func TestTrafficResultsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates three full sweeps")
	}
	sat, err := Sweep(SweepConfig{
		Dim:        6,
		Machine:    "ncube2",
		Port:       "all-port",
		Algorithms: []string{"u-cube", "w-sort"},
		RatesPerMS: []float64{0.25, 0.5, 1, 2, 4, 8},
		Ops:        64,
		Bytes:      4096,
		Seed:       1993,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := ChaosSweep(ChaosConfig{
		Dim:         4,
		Machine:     "ncube2",
		Port:        "all-port",
		Algorithm:   "w-sort",
		RatesPerMS:  []float64{0.125, 0.25, 0.5},
		FaultCounts: []int{0, 1, 2, 4},
		Ops:         16,
		Bytes:       4096,
		Seed:        1993,
	})
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := LaneSweep(LaneSweepConfig{
		Dim:        6,
		Machine:    "ncube2",
		Algorithm:  "w-sort",
		Ports:      []string{"one-port", "all-port"},
		Lanes:      []int{1, 2, 4},
		Policy:     "round-robin",
		RatesPerMS: []float64{0.25, 0.5, 1, 2, 4, 8},
		Ops:        64,
		Bytes:      4096,
		Seed:       1993,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		tb   *stats.Table
	}{
		{"traffic_mean", sat.Mean},
		{"traffic_p95", sat.P95},
		{"traffic_util", sat.Util},
		{"chaos_delivered", chaos.Delivered},
		{"chaos_inflation", chaos.Inflation},
		{"chaos_retry", chaos.Retry},
		{"lanes_blocked", lanes.Blocked},
		{"lanes_sojourn", lanes.Sojourn},
		{"lanes_util", lanes.Util},
	} {
		for _, out := range []struct{ ext, body string }{{".txt", f.tb.Render()}, {".csv", f.tb.CSV()}} {
			path := filepath.Join("..", "..", "results", f.name+out.ext)
			if *update {
				if err := os.WriteFile(path, []byte(out.body), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal([]byte(out.body), want) {
				t.Errorf("%s differs from its regeneration:\n got:\n%s\nwant:\n%s", path, out.body, want)
			}
		}
	}
}
