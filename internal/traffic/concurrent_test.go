package traffic

import (
	"reflect"
	"sync"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/ncube"
	"hypercube/internal/topology"
)

// TestConcurrentRunAndScenario drives standalone multicast runs and a
// traffic scenario on two goroutines at once, each borrowing sessions from
// the shared pool, and requires every result to equal its sequential
// reference. Under -race it also proves that no recycled session, tree
// execution or node table is reachable from two goroutines.
func TestConcurrentRunAndScenario(t *testing.T) {
	cube := topology.New(6, topology.HighToLow)
	tr := core.Build(cube, core.WSort, 5, []topology.NodeID{1, 9, 17, 30, 33, 48, 62})
	p := ncube.NCube2(core.OnePort)
	spec := func() *Spec {
		return &Spec{
			Dim:  5,
			Seed: 19,
			Arrivals: &Arrivals{
				Kind: "poisson", Count: 16, RatePerMS: 12,
				Op: Template{Kind: KindMulticast, Algorithm: "combine", DestCount: 10, Bytes: 1024},
			},
		}
	}
	wantRun := ncube.Run(p, tr, 2048)
	wantScenario, err := Run(spec())
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan string, 2*rounds)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if got := ncube.Run(p, tr, 2048); !reflect.DeepEqual(got, wantRun) {
				errs <- "ncube.Run diverged from its sequential reference"
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			got, err := Run(spec())
			if err != nil {
				errs <- err.Error()
			} else if !reflect.DeepEqual(got, wantScenario) {
				errs <- "traffic scenario diverged from its sequential reference"
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
