package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hypercube/internal/topology"
)

// wsInstance is one multicast instance of a workspace sequence.
type wsInstance struct {
	c     topology.Cube
	a     Algorithm
	pm    PortModel
	src   topology.NodeID
	dests []topology.NodeID
}

// decodeInstances reads a sequence of instances from raw, five header
// bytes each: the dimension (1–12), a byte packing the resolution (bit 0),
// the algorithm (bits 1–3) and the port model (bit 4), the source's two
// bytes and a size byte. A size byte with its top bit set draws
// (size&0x7f)/127 of the cube's nodes from a generator seeded by the
// header; otherwise size&0x7f two-byte destinations follow it.
func decodeInstances(raw []byte) []wsInstance {
	var out []wsInstance
	for len(raw) >= 5 {
		h := raw[:5]
		raw = raw[5:]
		res := topology.HighToLow
		if h[1]&1 != 0 {
			res = topology.LowToHigh
		}
		in := wsInstance{
			c:  topology.New(1+int(h[0])%12, res),
			a:  Algorithms()[int(h[1]>>1&7)%len(Algorithms())],
			pm: PortModel(h[1] >> 4 & 1),
		}
		n := in.c.Nodes()
		in.src = topology.NodeID((int(h[2])<<8 | int(h[3])) % n)
		if size := int(h[4]); size&0x80 != 0 {
			rng := rand.New(rand.NewSource(int64(h[0])<<32 | int64(h[1])<<24 | int64(h[2])<<16 | int64(h[3])<<8 | int64(size)))
			in.dests = randomDests(rng, in.c.Dim(), in.src, (size&0x7f)*(n-1)/127)
		} else {
			for ; size > 0 && len(raw) >= 2; size-- {
				in.dests = append(in.dests, topology.NodeID((int(raw[0])<<8|int(raw[1]))%n))
				raw = raw[2:]
			}
		}
		out = append(out, in)
	}
	return out
}

// checkWorkspaceInstance builds and schedules in through ws and fails
// unless the tree and schedule equal fresh Build and NewSchedule results:
// the same tree, capped payloads, equal Unicasts and Steps, and the same
// RecvStep answer for every node of the cube.
func checkWorkspaceInstance(t *testing.T, ws *Workspace, in wsInstance) {
	t.Helper()
	want := Build(in.c, in.a, in.src, in.dests)
	got := ws.Build(in.c, in.a, in.src, in.dests)
	if err := SameTree(want, got); err != nil {
		t.Fatalf("%v %d-cube from %v: %v", in.a, in.c.Dim(), in.src, err)
	}
	if got.Cube != want.Cube || got.Source != want.Source || got.Algorithm != want.Algorithm {
		t.Fatalf("%v: tree header %v/%v/%v, want %v/%v/%v", in.a, got.Cube, got.Source, got.Algorithm, want.Cube, want.Source, want.Algorithm)
	}
	for _, sends := range got.Sends {
		if len(sends) != cap(sends) {
			t.Fatalf("%v: send window len %d cap %d", in.a, len(sends), cap(sends))
		}
		for _, s := range sends {
			if len(s.Payload) != cap(s.Payload) {
				t.Fatalf("%v: payload len %d cap %d", in.a, len(s.Payload), cap(s.Payload))
			}
		}
	}
	ws2 := NewSchedule(want, in.pm)
	gs := ws.NewSchedule(got, in.pm)
	if gs.Tree != got || gs.Port != in.pm {
		t.Fatalf("%v/%v: schedule bound to the wrong tree or port model", in.a, in.pm)
	}
	if !slices.Equal(gs.Unicasts, ws2.Unicasts) {
		t.Fatalf("%v/%v: Unicasts %v, want %v", in.a, in.pm, gs.Unicasts, ws2.Unicasts)
	}
	if gs.Steps() != ws2.Steps() {
		t.Fatalf("%v/%v: %d steps, want %d", in.a, in.pm, gs.Steps(), ws2.Steps())
	}
	for v := 0; v < in.c.Nodes(); v++ {
		gStep, gOK := gs.RecvStep(topology.NodeID(v))
		wStep, wOK := ws2.RecvStep(topology.NodeID(v))
		if gStep != wStep || gOK != wOK {
			t.Fatalf("%v/%v: RecvStep(%d) = %d,%v, want %d,%v", in.a, in.pm, v, gStep, gOK, wStep, wOK)
		}
	}
}

// FuzzWorkspaceMatchesFresh: one workspace reused over any sequence of
// instances — any dimension, resolution, algorithm and port model, large
// ones followed by small ones — yields exactly the trees and schedules of
// fresh Build and NewSchedule calls, so nothing of an earlier instance
// (a stale tail, a stamp, a slot index) leaks into a later one.
func FuzzWorkspaceMatchesFresh(f *testing.F) {
	f.Add([]byte{
		11, 0x0a | 0x10, 0, 0, 0xc0, // W-sort, all-port, half of a 12-cube
		1, 0x04, 0, 1, 2, 0, 0, 0, 3, // U-cube, one-port, 2-cube to 0 and 3
		9, 0x07 | 0x10, 1, 2, 0xff, // Maxport, low-to-high, all-port broadcast
		3, 0x08, 0, 5, 0x90, // Combine, one-port, 4-cube
	})
	f.Add([]byte{
		9, 0x10, 0, 0, 0x90, // separate addressing, all-port
		9, 0x02 | 0x10, 0, 0, 0xa0, // SF binomial, all-port
		4, 0x04 | 0x10, 0, 0, 0xd0, // U-cube, all-port: deferred sends
		0, 0x0a, 0, 1, 1, 0, 0, // W-sort, 1-cube
	})
	f.Add([]byte{5, 0x0b | 0x10, 0, 63, 0x80, 5, 0x0b, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var ws Workspace
		for _, in := range decodeInstances(raw) {
			checkWorkspaceInstance(t, &ws, in)
		}
	})
}

// When the step stamp wraps, the workspace clears its stamp tables once,
// so no stale stamp can equal a new step's: the rerun's first step takes
// stamp 1 again, which the first run's first step left on the same
// channels and arcs.
func TestWorkspaceStampWrap(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	dests := randomDests(rand.New(rand.NewSource(3)), 6, 0, 40)
	var ws Workspace
	in := wsInstance{c: c, a: UCube, pm: AllPort, src: 0, dests: dests}
	checkWorkspaceInstance(t, &ws, in)
	ws.stamp = math.MaxUint32 // the next step wraps
	checkWorkspaceInstance(t, &ws, in)
	if ws.stamp >= math.MaxUint32-64 {
		t.Fatalf("stamp %d did not wrap", ws.stamp)
	}
}

// A warmed workspace builds and schedules a further instance no larger
// than its earlier ones without allocating, under either port model.
func TestWorkspaceAllocFree(t *testing.T) {
	c, dests := allocWorkload()
	var ws Workspace
	for _, pm := range []PortModel{OnePort, AllPort} {
		for _, a := range []Algorithm{SeparateAddressing, UCube, Maxport, Combine, WSort} {
			got := testing.AllocsPerRun(20, func() { ws.NewSchedule(ws.Build(c, a, 0, dests), pm) })
			if got != 0 {
				t.Errorf("warmed workspace %v/%v allocates %v objects per instance, want 0", a, pm, got)
			}
		}
	}
}
