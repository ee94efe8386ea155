package workload

import (
	"sync"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// Two workers on two goroutines, each with its own workspace and session,
// reproduce fresh Build, NewSchedule and Run results instance for
// instance. Under -race this shows the workers share no storage.
func TestWorkersShareNothing(t *testing.T) {
	cube := topology.New(6, topology.HighToLow)
	p := ncube.NCube2(core.AllPort)
	var wg sync.WaitGroup
	errs := make([]string, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := new(worker)
			gen := w.generator(cube, int64(g))
			for trial := 0; trial < 30; trial++ {
				src, dests := w.draw(gen, 1+(trial*7+g)%63)
				for _, a := range []core.Algorithm{core.UCube, core.Maxport, core.Combine, core.WSort} {
					want := core.Build(cube, a, src, dests)
					tr := w.ws.Build(cube, a, src, dests)
					if err := core.SameTree(want, tr); err != nil {
						errs[g] = err.Error()
						return
					}
					if got, fresh := w.ws.NewSchedule(tr, core.AllPort).Steps(), core.NewSchedule(want, core.AllPort).Steps(); got != fresh {
						errs[g] = "schedule steps differ"
						return
					}
					got := w.run(p, ncube.Instrumentation{}, tr, 1024)
					fresh := ncube.Run(p, want, 1024)
					if got.Makespan != fresh.Makespan || len(got.Recv) != len(fresh.Recv) {
						errs[g] = "run results differ"
						return
					}
					for v, at := range fresh.Recv {
						if got.Recv[v] != at {
							errs[g] = "receive times differ"
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}

// Every sweep that runs through worker-owned storage renders the same
// table on one worker as on two, including the statistics that read a
// reused schedule's receive steps and a reused result's Recv map.
func TestWorkerSweepsMatchAcrossWorkerCounts(t *testing.T) {
	for _, stat := range []StepStat{MaxSteps, AvgSteps} {
		for _, pm := range []core.PortModel{core.OnePort, core.AllPort} {
			c := StepwiseConfig{Dim: 6, Trials: 6, Seed: 11, Port: pm, Stat: stat, DestCounts: []int{1, 9, 30, 63}}
			one, two := c, c
			one.Workers, two.Workers = 1, 2
			if a, b := Stepwise(one).Render(), Stepwise(two).Render(); a != b {
				t.Errorf("stepwise %v/%v: one worker\n%s\ntwo workers\n%s", stat, pm, a, b)
			}
		}
	}
	for _, stat := range []DelayStat{AvgDelay, MaxDelay} {
		c := DelayConfig{Dim: 5, Trials: 4, Seed: 11, Bytes: 1024, Stat: stat, DestCounts: []int{1, 8, 20, 31}}
		one, two := c, c
		one.Workers, two.Workers = 1, 2
		if a, b := Delay(one).Render(), Delay(two).Render(); a != b {
			t.Errorf("delay %v: one worker\n%s\ntwo workers\n%s", stat, a, b)
		}
	}
	c := SizeSweepConfig{Dim: 5, Dests: 10, Trials: 4, Seed: 11, Sizes: []int{64, 1024, 4096}}
	one, two := c, c
	one.Workers, two.Workers = 1, 2
	if a, b := SizeSweep(one).Render(), SizeSweep(two).Render(); a != b {
		t.Errorf("size sweep: one worker\n%s\ntwo workers\n%s", a, b)
	}
}
