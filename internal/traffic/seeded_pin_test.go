package traffic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"hypercube/internal/collective"
)

// TestSeededSpecsPinned pins the canonical bytes of seeded specs: every
// dest_count draw, Poisson and closed-loop arrival expansion and seeded
// fault draw is part of a canonical spec and so of a server cache key, and
// a data op's synthesized payload vectors are part of its verified result.
// A change to any seeded stream changes these hashes. The Poisson spec
// draws well past 607 values from one generator, and the first data op
// 2048, so both the first pass over the generator's register and the
// steady state after it are pinned.
func TestSeededSpecsPinned(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"dest-count", `{"dim":6,"seed":11,"ops":[
			{"kind":"multicast","src":5,"dest_count":32,"seed":7},
			{"kind":"fault-tolerant-multicast","src":0,"dest_count":12,"seed":-3},
			{"kind":"multicast","src":63,"dest_count":63,"seed":4611686018427387904},
			{"kind":"multicast","src":1,"dest_count":20,"seed":-4611686018427387904},
			{"kind":"multicast","src":2,"dest_count":9,"seed":9223372036854775807},
			{"kind":"multicast","src":3,"dest_count":9,"seed":-9223372036854775808},
			{"kind":"multicast","src":4,"dest_count":9,"seed":6442450941},
			{"kind":"multicast","src":6,"dest_count":5}]}`,
			"bb3031f1d34e03b7ccc9e5868981d92bd3a084a3969afb44245453a27da52a4a"},
		{"poisson", `{"dim":6,"seed":1993,"arrivals":{"kind":"poisson","count":320,"rate_per_ms":3,
			"op":{"kind":"multicast","dest_count":32}}}`,
			"1ab9181876b5379adb0792e48ec95a897f647d399eaf28b892c142cf9d0f07f9"},
		{"closed-loop", `{"dim":5,"seed":-42,"arrivals":{"kind":"closed-loop","count":40,"clients":3,"think_us":100,
			"op":{"kind":"fault-tolerant-multicast","dest_count":9}}}`,
			"542dc495e5b671f541bb9fdb29a1a3ec981826cd9bc763d89a13c167628970f9"},
		{"fault-draws", `{"dim":6,"seed":3,"ops":[{"kind":"broadcast","src":0}],"faults":[
			{"kind":"link","count":20,"seed":77},
			{"kind":"link","mode":"stall","at_us":50,"until_us":400,"count":5,"seed":-8},
			{"kind":"node","node":9,"at_us":10}]}`,
			"a12a64ef34f7fbddff422a3f36d96f710e768440411ddc6a7c5102aaae3dd39b"},
		{"data", `{"dim":4,"seed":9,"ops":[
			{"kind":"allreduce","bytes":64,"seed":3},
			{"kind":"reduce-scatter","bytes":24,"seed":-5},
			{"kind":"allreduce","algorithm":"ring","bytes":8,"seed":6442450941}]}`,
			"0d58985f723ecbf507df40eb6401701cf31217e38a826511ffc92320a49f9a8c"},
	}
	for _, c := range cases {
		s, err := Parse([]byte(c.spec))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := s.Canonicalize(Limits{}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		h.Write(b)
		nodes := 1 << s.Dim
		for i := range s.Ops {
			op := &s.Ops[i]
			if !dataKind(op.Kind) {
				continue
			}
			for _, vec := range collective.RandomData(s.PayloadSeed(op), nodes, nodes*op.BlockElems()) {
				for _, v := range vec {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
