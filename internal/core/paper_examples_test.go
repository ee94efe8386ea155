package core

import (
	"reflect"
	"sort"
	"testing"

	"hypercube/internal/topology"
)

// The multicast instance of Figures 2, 3, and 8: source 0000 in a 4-cube,
// destinations {0001, 0011, 0101, 0111, 1011, 1100, 1110, 1111}.
var (
	fig3Cube  = topology.New(4, topology.HighToLow)
	fig3Src   = topology.NodeID(0b0000)
	fig3Dests = []topology.NodeID{
		0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111,
	}
)

func destSet(t *Tree, dests []topology.NodeID) map[topology.NodeID]bool {
	set := map[topology.NodeID]bool{}
	for _, d := range dests {
		set[d] = true
	}
	return set
}

// Figure 3(a): the store-and-forward tree reaches all destinations in 4
// steps and involves exactly the five relay processors
// {0010, 0100, 0110, 1000, 1010}.
func TestFigure3aSFBinomial(t *testing.T) {
	tr := Build(fig3Cube, SFBinomial, fig3Src, fig3Dests)
	tr.Validate()
	s := NewSchedule(tr, OnePort)
	if got := s.Steps(); got != 4 {
		t.Errorf("SF binomial steps = %d, want 4", got)
	}
	relays := tr.Relays(fig3Dests)
	want := []topology.NodeID{0b0010, 0b0100, 0b0110, 0b1000, 0b1010}
	if !reflect.DeepEqual(relays, want) {
		t.Errorf("relays = %v, want %v", relays, want)
	}
	// Every destination is reached.
	got := destSet(tr, nil)
	for _, v := range tr.Destinations() {
		got[v] = true
	}
	for _, d := range fig3Dests {
		if !got[d] {
			t.Errorf("destination %04b not reached", d)
		}
	}
}

// All SF binomial sends are single-hop: the store-and-forward model relays
// through local processors, never through intermediate routers.
func TestSFBinomialSingleHop(t *testing.T) {
	tr := Build(fig3Cube, SFBinomial, fig3Src, fig3Dests)
	for _, s := range tr.Unicasts() {
		if topology.Distance(s.From, s.To) != 1 {
			t.Errorf("SF send %v -> %v spans %d hops", s.From, s.To, topology.Distance(s.From, s.To))
		}
	}
}

// Figure 3(c): U-cube on a one-port system takes 4 steps (the tight lower
// bound ceil(log2(8+1)) = 4), and only destination processors handle the
// message.
func TestFigure3cUCubeOnePort(t *testing.T) {
	tr := Build(fig3Cube, UCube, fig3Src, fig3Dests)
	tr.Validate()
	s := NewSchedule(tr, OnePort)
	if got := s.Steps(); got != 4 {
		t.Errorf("U-cube one-port steps = %d, want 4", got)
	}
	if got := tr.Destinations(); !sameNodeSet(got, fig3Dests) {
		t.Errorf("receivers = %v, want exactly the destinations", got)
	}
	if cs := CheckContention(s); len(cs) != 0 {
		t.Errorf("U-cube one-port schedule has contention: %v", cs)
	}
}

// Figure 3(d): U-cube run on an all-port system still takes 4 steps, and
// node 1011 is reached only at step 3 because its unicast shares the
// source's channel 3 with the unicast to 1100.
func TestFigure3dUCubeAllPort(t *testing.T) {
	tr := Build(fig3Cube, UCube, fig3Src, fig3Dests)
	s := NewSchedule(tr, AllPort)
	if got := s.Steps(); got != 4 {
		t.Errorf("U-cube all-port steps = %d, want 4", got)
	}
	if st, ok := s.RecvStep(0b1011); !ok || st != 3 {
		t.Errorf("recv(1011) = %d,%v, want step 3", st, ok)
	}
	// 0111 receives directly from the source in step 1 and forwards to
	// 1100 in step 2; its second send (to 1011) shares channel 3 and
	// must wait for step 3.
	if st, _ := s.RecvStep(0b0111); st != 1 {
		t.Errorf("recv(0111) = %d, want 1", st)
	}
	if st, _ := s.RecvStep(0b1100); st != 2 {
		t.Errorf("recv(1100) = %d, want 2", st)
	}
	parent := tr.Parent()
	if parent[0b1100] != 0b0111 || parent[0b1011] != 0b0111 {
		t.Errorf("parents of 1100/1011 = %04b/%04b, want 0111", parent[0b1100], parent[0b1011])
	}
}

// Figure 3(e) / Figure 8(c): W-sort completes the multicast in 2 steps on
// an all-port architecture, contention-free, involving only destination
// processors.
func TestFigure3eWSortAllPort(t *testing.T) {
	tr := Build(fig3Cube, WSort, fig3Src, fig3Dests)
	tr.Validate()
	s := NewSchedule(tr, AllPort)
	if got := s.Steps(); got != 2 {
		t.Errorf("W-sort all-port steps = %d, want 2", got)
	}
	if got := tr.Destinations(); !sameNodeSet(got, fig3Dests) {
		t.Errorf("receivers = %v, want exactly the destinations", got)
	}
	if cs := CheckContention(s); len(cs) != 0 {
		t.Errorf("W-sort schedule has contention: %v", cs)
	}
}

// Figure 8 worked tree: with source 0, the weighted chain is
// {0,1,3,5,7,14,15,12,11}; the source transmits to 14, 5, 3, 1 in step 1
// and node 14 delivers 15, 12, 11 in step 2.
func TestFigure8cWSortTreeShape(t *testing.T) {
	tr := Build(fig3Cube, WSort, fig3Src, fig3Dests)
	s := NewSchedule(tr, AllPort)
	wantStep1 := []topology.NodeID{0b0001, 0b0011, 0b0101, 0b1110}
	for _, v := range wantStep1 {
		if st, _ := s.RecvStep(v); st != 1 {
			t.Errorf("recv(%04b) = %d, want 1", v, st)
		}
	}
	wantFrom14 := []topology.NodeID{0b1011, 0b1100, 0b1111}
	parent := tr.Parent()
	for _, v := range wantFrom14 {
		if parent[v] != 0b1110 {
			t.Errorf("parent(%04b) = %04b, want 1110", v, parent[v])
		}
		if st, _ := s.RecvStep(v); st != 2 {
			t.Errorf("recv(%04b) = %d, want 2", v, st)
		}
	}
	if parent[0b0111] != 0b0101 {
		t.Errorf("parent(0111) = %04b, want 0101", parent[0b0111])
	}
}

// Figure 8(a): U-cube on the same set takes 4 steps on all-port because
// node 7 must serialize its sends to 11 and 12 over channel 3.
func TestFigure8aUCubeSerialization(t *testing.T) {
	tr := Build(fig3Cube, UCube, fig3Src, fig3Dests)
	s := NewSchedule(tr, AllPort)
	if got := s.Steps(); got != 4 {
		t.Errorf("steps = %d, want 4", got)
	}
	st12, _ := s.RecvStep(0b1100)
	st11, _ := s.RecvStep(0b1011)
	if st12 == st11 {
		t.Errorf("sends 7->12 and 7->11 must serialize, both at step %d", st12)
	}
}

// Figure 8(b): plain Maxport (no weighted sort) also takes 4 steps on this
// input because the unweighted chain leaves node 11 responsible for the
// whole upper subcube chain.
func TestFigure8bMaxportFourSteps(t *testing.T) {
	tr := Build(fig3Cube, Maxport, fig3Src, fig3Dests)
	tr.Validate()
	s := NewSchedule(tr, AllPort)
	if got := s.Steps(); got != 4 {
		t.Errorf("Maxport steps = %d, want 4", got)
	}
	// All unicasts from a common node go out on distinct channels, hence
	// all in the same step (the all-port property of Maxport).
	for i, sends := range tr.Sends {
		node := tr.Order[i]
		seen := map[int]bool{}
		for _, snd := range sends {
			d := fig3Cube.FirstHop(node, snd.To)
			if seen[d] {
				t.Errorf("node %v reuses channel %d", node, d)
			}
			seen[d] = true
		}
	}
	if cs := CheckContention(s); len(cs) != 0 {
		t.Errorf("Maxport schedule has contention: %v", cs)
	}
}

// Figure 6: for source 0000 and destinations {1001, 1010, 1011}, Maxport
// needs 3 steps while U-cube needs only 2 — the case where maximal port
// usage backfires.
func TestFigure6MaxportWorseThanUCube(t *testing.T) {
	c := topology.New(4, topology.HighToLow)
	dests := []topology.NodeID{0b1001, 0b1010, 0b1011}
	mp := NewSchedule(Build(c, Maxport, 0, dests), AllPort)
	uc := NewSchedule(Build(c, UCube, 0, dests), AllPort)
	if got := mp.Steps(); got != 3 {
		t.Errorf("Maxport steps = %d, want 3", got)
	}
	if got := uc.Steps(); got != 2 {
		t.Errorf("U-cube steps = %d, want 2", got)
	}
	// Combine fixes the pathology: no worse than either.
	cb := NewSchedule(Build(c, Combine, 0, dests), AllPort)
	if got := cb.Steps(); got != 2 {
		t.Errorf("Combine steps = %d, want 2", got)
	}
}

// Figure 5: U-cube from source 0100 to eight destinations takes 4 steps on
// one-port, the optimum ceil(log2(9)) = 4.
func TestFigure5UCubeChain(t *testing.T) {
	c := topology.New(4, topology.HighToLow)
	src := topology.NodeID(0b0100)
	dests := []topology.NodeID{
		0b0001, 0b0011, 0b0101, 0b0111, 0b1000, 0b1010, 0b1011, 0b1111,
	}
	tr := Build(c, UCube, src, dests)
	tr.Validate()
	s := NewSchedule(tr, OnePort)
	if got := s.Steps(); got != 4 {
		t.Errorf("steps = %d, want 4", got)
	}
	if got := tr.Destinations(); !sameNodeSet(got, dests) {
		t.Errorf("receivers = %v, want the 8 destinations", got)
	}
	if cs := CheckContention(s); len(cs) != 0 {
		t.Errorf("contention in U-cube one-port: %v", cs)
	}
}

func sameNodeSet(a, b []topology.NodeID) bool {
	as := append([]topology.NodeID(nil), a...)
	bs := append([]topology.NodeID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return reflect.DeepEqual(as, bs)
}
