package traffic

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hypercube/internal/topology"
	"hypercube/internal/workload"
)

// TestCanonicalRoundTrip: canonicalize → encode → parse → canonicalize →
// encode must be byte-identical (the canonical form is a fixed point),
// for explicit, Poisson, closed-loop, and group-phase scenarios.
func TestCanonicalRoundTrip(t *testing.T) {
	groups, roots := subcubeGroups()
	specs := map[string]*Spec{
		"explicit": {Dim: 4, Ops: []Op{
			{Kind: KindMulticast, Src: 3, Dests: []int{7, 1, 1, 5, 3}, Bytes: 64},
			{Kind: KindBroadcast, Src: 0},
			{ID: "g", Kind: KindGather, Src: 2, After: []string{"op000", "op001", "op001"}, DelayUS: 10},
		}},
		"poisson": {Dim: 5, Seed: 99, Arrivals: &Arrivals{
			Kind: "poisson", Count: 10, RatePerMS: 2.5,
			Op: Template{Kind: KindMulticast, DestCount: 4},
		}},
		"closed-loop": {Dim: 4, Seed: 5, Arrivals: &Arrivals{
			Kind: "closed-loop", Count: 6, Clients: 2, ThinkUS: 150,
			Op: Template{Kind: KindAllGather, Bytes: 512},
		}},
		"group-phase": {Dim: 6, Ops: []Op{
			{Kind: KindGroupPhase, Groups: groups, Roots: roots, Algorithm: "u-cube"},
		}},
	}
	for name, s := range specs {
		if err := s.Canonicalize(Limits{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b1, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s2, err := Parse(b1)
		if err != nil {
			t.Fatalf("%s: re-parse: %v", name, err)
		}
		if err := s2.Canonicalize(Limits{}); err != nil {
			t.Fatalf("%s: re-canonicalize: %v", name, err)
		}
		b2, err := s2.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: canonical form is not a fixed point:\n%s\n----\n%s", name, b1, b2)
		}
	}
}

// TestParseRejects: strict decoding — unknown fields, trailing data, and
// non-JSON all error without panicking.
func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		``,
		`{`,
		`nonsense`,
		`{"dim": 4, "bogus": 1}`,
		`{"dim": 4} trailing`,
		`{"ops": [{"kind": "multicast", "surprise": true}]}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", bad)
		}
	}
}

// TestCanonicalizeRejects: every malformed shape is an error with a
// useful message, never a panic.
func TestCanonicalizeRejects(t *testing.T) {
	cases := map[string]*Spec{
		"no ops":        {Dim: 4},
		"dim zero":      {Dim: 0, Ops: []Op{{Kind: KindBroadcast}}},
		"dim huge":      {Dim: 99, Ops: []Op{{Kind: KindBroadcast}}},
		"bad machine":   {Dim: 4, Machine: "cray", Ops: []Op{{Kind: KindBroadcast}}},
		"bad port":      {Dim: 4, Port: "two-port", Ops: []Op{{Kind: KindBroadcast}}},
		"no kind":       {Dim: 4, Ops: []Op{{}}},
		"bad kind":      {Dim: 4, Ops: []Op{{Kind: "gossip"}}},
		"bad algorithm": {Dim: 4, Ops: []Op{{Kind: KindMulticast, Algorithm: "magic", Dests: []int{1}}}},
		"src outside":   {Dim: 4, Ops: []Op{{Kind: KindBroadcast, Src: 16}}},
		"dest outside":  {Dim: 4, Ops: []Op{{Kind: KindMulticast, Dests: []int{99}}}},
		"dests+count":   {Dim: 4, Ops: []Op{{Kind: KindMulticast, Dests: []int{1}, DestCount: 2}}},
		"only src dest": {Dim: 4, Ops: []Op{{Kind: KindMulticast, Src: 1, Dests: []int{1}}}},
		"no dests":      {Dim: 4, Ops: []Op{{Kind: KindMulticast}}},
		"scatter alg":   {Dim: 4, Ops: []Op{{Kind: KindScatter, Algorithm: "w-sort"}}},
		"scatter dests": {Dim: 4, Ops: []Op{{Kind: KindScatter, Dests: []int{1}}}},
		"dup id":        {Dim: 4, Ops: []Op{{ID: "x", Kind: KindBroadcast}, {ID: "x", Kind: KindBroadcast}}},
		"fwd after":     {Dim: 4, Ops: []Op{{Kind: KindBroadcast, After: []string{"op001"}}, {Kind: KindBroadcast}}},
		"self after":    {Dim: 4, Ops: []Op{{ID: "a", Kind: KindBroadcast, After: []string{"a"}}}},
		"unknown after": {Dim: 4, Ops: []Op{{Kind: KindBroadcast, After: []string{"ghost"}}}},
		"delay no dep":  {Dim: 4, Ops: []Op{{Kind: KindBroadcast, DelayUS: 5}}},
		"neg at":        {Dim: 4, Ops: []Op{{Kind: KindBroadcast, AtUS: -1}}},
		"neg bytes":     {Dim: 4, Ops: []Op{{Kind: KindBroadcast, Bytes: -1}}},
		"big bytes":     {Dim: 4, Ops: []Op{{Kind: KindBroadcast, Bytes: 1 << 24}}},
		"groups empty":  {Dim: 4, Ops: []Op{{Kind: KindGroupPhase}}},
		"group empty":   {Dim: 4, Ops: []Op{{Kind: KindGroupPhase, Groups: [][]int{{}}, Roots: []int{0}}}},
		"roots short":   {Dim: 4, Ops: []Op{{Kind: KindGroupPhase, Groups: [][]int{{0, 1}}}}},
		"root outside":  {Dim: 4, Ops: []Op{{Kind: KindGroupPhase, Groups: [][]int{{0, 1}}, Roots: []int{2}}}},
		"group dup":     {Dim: 4, Ops: []Op{{Kind: KindGroupPhase, Groups: [][]int{{1, 1}}, Roots: []int{1}}}},
		"arr bad kind":  {Dim: 4, Arrivals: &Arrivals{Kind: "burst", Count: 3, Op: Template{Kind: KindBroadcast}}},
		"arr count":     {Dim: 4, Arrivals: &Arrivals{Kind: "poisson", RatePerMS: 1, Op: Template{Kind: KindBroadcast}}},
		"arr rate":      {Dim: 4, Arrivals: &Arrivals{Kind: "poisson", Count: 3, Op: Template{Kind: KindBroadcast}}},
		"arr group":     {Dim: 4, Arrivals: &Arrivals{Kind: "poisson", Count: 3, RatePerMS: 1, Op: Template{Kind: KindGroupPhase}}},
		"arr clients":   {Dim: 4, Arrivals: &Arrivals{Kind: "closed-loop", Count: 3, Op: Template{Kind: KindBroadcast}}},
		"arr mix":       {Dim: 4, Arrivals: &Arrivals{Kind: "poisson", Count: 3, RatePerMS: 1, Clients: 2, Op: Template{Kind: KindBroadcast}}},
	}
	for name, s := range cases {
		if err := s.Canonicalize(Limits{}); err == nil {
			t.Errorf("%s: accepted", name)
		} else if strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: suspicious error %q", name, err)
		}
	}
}

// TestArrivalsExpansion: generators expand deterministically and clear
// themselves; arrivals land in nondecreasing at_us order for Poisson and
// as per-client chains for closed-loop.
func TestArrivalsExpansion(t *testing.T) {
	s := &Spec{Dim: 5, Seed: 11, Arrivals: &Arrivals{
		Kind: "poisson", Count: 8, RatePerMS: 3,
		Op: Template{Kind: KindMulticast, DestCount: 5, Bytes: 256},
	}}
	if err := s.Canonicalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	if s.Arrivals != nil {
		t.Fatal("arrivals survived canonicalization")
	}
	if len(s.Ops) != 8 {
		t.Fatalf("expanded to %d ops, want 8", len(s.Ops))
	}
	for i, op := range s.Ops {
		if op.Kind != KindMulticast || len(op.Dests) == 0 || op.DestCount != 0 {
			t.Errorf("op %d not canonical: %+v", i, op)
		}
		if i > 0 && op.AtUS < s.Ops[i-1].AtUS {
			t.Errorf("op %d arrives at %dus before op %d", i, op.AtUS, i-1)
		}
	}

	maxOps := &Spec{Dim: 4, Arrivals: &Arrivals{
		Kind: "poisson", Count: 100, RatePerMS: 1, Op: Template{Kind: KindBroadcast},
	}}
	if err := maxOps.Canonicalize(Limits{MaxOps: 50}); err == nil {
		t.Error("arrival count above MaxOps accepted")
	}
}

// Canonicalize expands every seeded destination draw with one reseeded
// generator; each op's set must be exactly what a fresh generator at the
// op's seed draws, sorted — so canonical bytes and cache keys are those
// of a per-op generator. Draw sizes alternate between small and large so
// the reused buffers shrink as well as grow.
func TestCanonicalDestsMatchFreshGenerator(t *testing.T) {
	const dim = 6
	cube := topology.New(dim, topology.HighToLow)
	spec := &Spec{Dim: dim}
	for i := 0; i < 24; i++ {
		m := 1 + (i*37)%(cube.Nodes()-1)
		if i%2 == 1 {
			m = 1 + i%3
		}
		spec.Ops = append(spec.Ops, Op{Kind: KindMulticast, Src: (i * 11) % cube.Nodes(), DestCount: m, Seed: int64(1000 + 7*i)})
	}
	want := make([][]int, len(spec.Ops))
	for i, op := range spec.Ops {
		for _, d := range workload.NewGenerator(cube, op.Seed).Dests(topology.NodeID(op.Src), op.DestCount) {
			want[i] = append(want[i], int(d))
		}
		sort.Ints(want[i])
	}
	if err := spec.Canonicalize(PermissiveLimits()); err != nil {
		t.Fatal(err)
	}
	for i, op := range spec.Ops {
		if !reflect.DeepEqual(op.Dests, want[i]) {
			t.Errorf("op %d: dests %v, want %v", i, op.Dests, want[i])
		}
	}
}

// BenchmarkCanonicalizeDestCount canonicalizes a 64-arrival Poisson spec
// of 32-destination multicasts on a 6-cube: 64 seeded destination draws
// plus the arrival expansion, the work the server and the traffic engine
// do for every dest_count spec they admit.
func BenchmarkCanonicalizeDestCount(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := &Spec{Dim: 6, Seed: 1993, Arrivals: &Arrivals{
			Kind: "poisson", Count: 64, RatePerMS: 2,
			Op: Template{Kind: KindMulticast, DestCount: 32},
		}}
		if err := s.Canonicalize(Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}
