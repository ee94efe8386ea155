package traffic

import (
	"reflect"
	"testing"
)

func sweepCfg(workers int) SweepConfig {
	return SweepConfig{
		Dim:        4,
		Algorithms: []string{"u-cube", "maxport"},
		RatesPerMS: []float64{2, 8, 32},
		Ops:        24,
		Bytes:      512,
		Seed:       7,
		Workers:    workers,
	}
}

// TestSweepWorkersInvariant pins that fanning the (rate, algorithm) cells
// across the parallel executor leaves the saturation tables byte-identical
// at every worker count.
func TestSweepWorkersInvariant(t *testing.T) {
	want, err := Sweep(sweepCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := Sweep(sweepCfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sweep tables diverge from serial", workers)
		}
	}
}
