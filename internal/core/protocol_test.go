package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hypercube/internal/chain"
	"hypercube/internal/topology"
)

// The distributed execution — every node computing its forwards locally
// from the received address field — reproduces the centrally built tree
// exactly, for every algorithm, on both resolutions. This is the protocol
// property that lets the algorithms run on a real machine with no global
// coordination.
func TestBuildDistributedMatchesBuild(t *testing.T) {
	for _, res := range []topology.Resolution{topology.HighToLow, topology.LowToHigh} {
		c := topology.New(6, res)
		rng := rand.New(rand.NewSource(131))
		for trial := 0; trial < 150; trial++ {
			src := topology.NodeID(rng.Intn(64))
			dests := randomDests(rng, 6, src, 1+rng.Intn(63))
			for _, a := range Algorithms() {
				want := Build(c, a, src, dests)
				got := BuildDistributed(c, a, src, dests)
				if err := SameTree(want, got); err != nil {
					t.Fatalf("%v: %v", a, err)
				}
			}
		}
	}
}

// SameTree compares Order and every Send field in both directions: a
// sender missing on either side, a payload element, a receiver or the
// order of slots each make it fail.
func TestSameTreeIsExact(t *testing.T) {
	c := topology.New(5, topology.HighToLow)
	dests := []topology.NodeID{1, 3, 5, 7, 11, 12, 14, 15, 20, 31}
	for _, tc := range []struct {
		name   string
		mutate func(tr *Tree)
	}{
		{"payload element", func(tr *Tree) {
			p := slices.Clone(tr.Sends[0][0].Payload)
			p[len(p)-1] ^= 1
			tr.Sends[0][0].Payload = p
		}},
		{"receiver", func(tr *Tree) { tr.Sends[0][1].To ^= 1 }},
		{"sender", func(tr *Tree) { tr.Sends[0][0].From ^= 1 }},
		{"extra send", func(tr *Tree) {
			last := len(tr.Sends) - 1
			tr.Sends[last] = append(tr.Sends[last], Send{From: tr.Order[last], To: 2})
		}},
		{"slots swapped", func(tr *Tree) {
			tr.Order[1], tr.Order[2] = tr.Order[2], tr.Order[1]
			tr.Sends[1], tr.Sends[2] = tr.Sends[2], tr.Sends[1]
		}},
	} {
		want := Build(c, WSort, 0, dests)
		got := BuildDistributed(c, WSort, 0, dests)
		if err := SameTree(want, got); err != nil {
			t.Fatalf("unmutated: %v", err)
		}
		tc.mutate(got)
		if SameTree(want, got) == nil || SameTree(got, want) == nil {
			t.Errorf("%s: SameTree missed the difference", tc.name)
		}
	}
}

// LocalSends on the exact payload a node received equals that node's sends
// in the centrally built tree.
func TestLocalSendsMatchTreeSends(t *testing.T) {
	c := topology.New(6, topology.HighToLow)
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 100; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dests := randomDests(rng, 6, src, 1+rng.Intn(40))
		for _, a := range []Algorithm{UCube, Maxport, Combine, WSort} {
			tr := Build(c, a, src, dests)
			for k, snd := range tr.Unicasts() {
				got := LocalSends(c, a, src, snd.Payload)
				want := tr.Sends[k+1] // the receiver of send k holds slot k+1
				if len(got) != len(want) {
					t.Fatalf("%v: node %v local %d sends, tree %d", a, snd.To, len(got), len(want))
				}
				for i := range got {
					if got[i].To != want[i].To {
						t.Fatalf("%v: node %v send %d: %v vs %v", a, snd.To, i, got[i].To, want[i].To)
					}
				}
			}
		}
	}
}

// StartPayload conventions.
func TestStartPayload(t *testing.T) {
	c := topology.New(4, topology.HighToLow)
	dests := []topology.NodeID{1, 3, 5}
	if got := StartPayload(c, UCube, 0, dests); got[0] != 0 || len(got) != 4 {
		t.Errorf("UCube start payload = %v", got)
	}
	if got := StartPayload(c, SFBinomial, 0, dests); len(got) != 3 || got[0] == 0 {
		t.Errorf("SF start payload = %v", got)
	}
	// W-sort start payload is the weighted Figure 8 chain.
	fig8 := []topology.NodeID{1, 3, 5, 7, 11, 12, 14, 15}
	got := StartPayload(c, WSort, 0, fig8)
	want := chain.Chain{0, 1, 3, 5, 7, 14, 15, 12, 11}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WSort start payload = %v, want %v", got, want)
	}
}

// Leaf payloads produce no sends.
func TestLocalSendsLeaf(t *testing.T) {
	c := topology.New(4, topology.HighToLow)
	if got := LocalSends(c, Maxport, 0, chain.Chain{5}); got != nil {
		t.Errorf("leaf produced sends: %v", got)
	}
	if got := LocalSends(c, SeparateAddressing, 0, chain.Chain{5}); got != nil {
		t.Errorf("separate leaf produced sends: %v", got)
	}
	if got := LocalSendsAt(c, SFBinomial, 0, 5, nil); got != nil {
		t.Errorf("SF leaf produced sends: %v", got)
	}
	if got := LocalSends(c, WSort, 0, nil); got != nil {
		t.Errorf("empty payload produced sends: %v", got)
	}
}

func TestLocalSendsSFPanicsWithoutNode(t *testing.T) {
	c := topology.New(4, topology.HighToLow)
	defer func() {
		if recover() == nil {
			t.Fatal("LocalSends(SFBinomial) did not panic")
		}
	}()
	LocalSends(c, SFBinomial, 0, chain.Chain{1, 2})
}

// The Figure 8 worked example, executed purely through the protocol.
func TestDistributedFigure8(t *testing.T) {
	c := topology.New(4, topology.HighToLow)
	dests := []topology.NodeID{1, 3, 5, 7, 11, 12, 14, 15}
	tr := BuildDistributed(c, WSort, 0, dests)
	s := NewSchedule(tr, AllPort)
	if s.Steps() != 2 {
		t.Errorf("distributed W-sort steps = %d, want 2", s.Steps())
	}
}
