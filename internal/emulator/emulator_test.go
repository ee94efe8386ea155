package emulator

import (
	"bytes"
	"math/rand"
	"testing"

	"hypercube/internal/bits"
	"hypercube/internal/core"
	"hypercube/internal/topology"
)

func randomDests(rng *rand.Rand, n int, src topology.NodeID, m int) []topology.NodeID {
	perm := rng.Perm(bits.Pow2(n))
	out := make([]topology.NodeID, 0, m)
	for _, p := range perm {
		if topology.NodeID(p) == src {
			continue
		}
		out = append(out, topology.NodeID(p))
		if len(out) == m {
			break
		}
	}
	return out
}

// Every destination receives a bit-exact copy of the payload exactly once,
// for every algorithm, under real concurrency.
func TestEmulatedDeliveryExact(t *testing.T) {
	cube := topology.New(6, topology.HighToLow)
	e := New(cube)
	defer e.Close()
	rng := rand.New(rand.NewSource(42))
	payload := make([]byte, 1024)
	rng.Read(payload)

	for trial := 0; trial < 30; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(63))
		for _, a := range core.Algorithms() {
			res := e.Run(a, src, dests, payload)
			for _, d := range dests {
				rec, ok := res.Receipts[d]
				if !ok {
					t.Fatalf("%v: destination %v got nothing", a, d)
				}
				if !bytes.Equal(rec.Payload, payload) {
					t.Fatalf("%v: destination %v payload corrupted", a, d)
				}
			}
			if a != core.SFBinomial && len(res.Receipts) != len(dests) {
				t.Fatalf("%v: %d receipts for %d destinations", a, len(res.Receipts), len(dests))
			}
			if _, ok := res.Receipts[src]; ok {
				t.Fatalf("%v: source delivered to itself", a)
			}
		}
	}
}

// The emulated message count matches the tree built centrally.
func TestEmulatedMessageCount(t *testing.T) {
	cube := topology.New(5, topology.HighToLow)
	e := New(cube)
	defer e.Close()
	rng := rand.New(rand.NewSource(7))
	payload := []byte("data redistribution phase 7")
	for trial := 0; trial < 20; trial++ {
		src := topology.NodeID(rng.Intn(32))
		dests := randomDests(rng, 5, src, 1+rng.Intn(31))
		for _, a := range core.Algorithms() {
			res := e.Run(a, src, dests, payload)
			want := len(core.Build(cube, a, src, dests).Unicasts())
			if res.Messages != want {
				t.Fatalf("%v: %d messages, tree has %d", a, res.Messages, want)
			}
		}
	}
}

// Forward counts in receipts equal the tree's out-degrees.
func TestEmulatedForwardCounts(t *testing.T) {
	cube := topology.New(4, topology.HighToLow)
	e := New(cube)
	defer e.Close()
	dests := []topology.NodeID{1, 3, 5, 7, 11, 12, 14, 15}
	res := e.Run(core.WSort, 0, dests, []byte("x"))
	tr := core.Build(cube, core.WSort, 0, dests)
	if len(res.Receipts) != tr.NumUnicasts() {
		t.Errorf("%d receipts, tree reaches %d nodes", len(res.Receipts), tr.NumUnicasts())
	}
	for i, v := range tr.Order[1:] {
		if rec := res.Receipts[v]; rec.Forwards != len(tr.Sends[i+1]) {
			t.Errorf("node %v forwards = %d, tree says %d", v, rec.Forwards, len(tr.Sends[i+1]))
		}
	}
}

// Broadcast across the whole emulated cube.
func TestEmulatedBroadcast(t *testing.T) {
	cube := topology.New(7, topology.HighToLow)
	e := New(cube)
	defer e.Close()
	var dests []topology.NodeID
	for v := 1; v < cube.Nodes(); v++ {
		dests = append(dests, topology.NodeID(v))
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	res := e.Run(core.Maxport, 0, dests, payload)
	if len(res.Receipts) != 127 || res.Messages != 127 {
		t.Fatalf("receipts=%d messages=%d", len(res.Receipts), res.Messages)
	}
}

// Sequential reuse of one emulator.
func TestEmulatedSequentialRuns(t *testing.T) {
	cube := topology.New(4, topology.HighToLow)
	e := New(cube)
	defer e.Close()
	for i := 0; i < 50; i++ {
		src := topology.NodeID(i % 16)
		dests := []topology.NodeID{topology.NodeID((i + 1) % 16), topology.NodeID((i + 5) % 16)}
		var filtered []topology.NodeID
		for _, d := range dests {
			if d != src {
				filtered = append(filtered, d)
			}
		}
		res := e.Run(core.Combine, src, filtered, []byte{byte(i)})
		if len(res.Receipts) != len(filtered) {
			t.Fatalf("run %d: receipts = %d", i, len(res.Receipts))
		}
	}
}

// Zero-destination multicast is a no-op.
func TestEmulatedEmpty(t *testing.T) {
	cube := topology.New(3, topology.HighToLow)
	e := New(cube)
	defer e.Close()
	res := e.Run(core.WSort, 2, nil, []byte("unused"))
	if len(res.Receipts) != 0 || res.Messages != 0 {
		t.Fatalf("empty run produced %v", res)
	}
}

// Payload aliasing: mutating the caller's buffer after Run must not affect
// recorded receipts (they hold private copies)... receipts are snapshotted
// before Run returns, so mutate and compare.
func TestEmulatedPayloadIsolation(t *testing.T) {
	cube := topology.New(3, topology.HighToLow)
	e := New(cube)
	defer e.Close()
	payload := []byte{1, 2, 3, 4}
	res := e.Run(core.UCube, 0, []topology.NodeID{5, 6}, payload)
	payload[0] = 99
	for _, rec := range res.Receipts {
		if rec.Payload[0] != 1 {
			t.Fatal("receipt aliases caller buffer")
		}
	}
}
