package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestDataOpResultsPinned pins what seeded data-op streams simulate: the
// SHA-256 of the canonical spec and Result, encoded together as
// cmd/traffic -spec prints them, of two Poisson allreduce streams (the
// perfbench traffic scenarios at seed 1993), a Poisson reduce-scatter
// stream, a closed-loop all-to-all stream, and two overlapping
// scatter→gather→allgather chains on two lanes contending with Poisson
// multicasts (the timing-only collectives on a shared, blocking network).
// TestSeededSpecsPinned pins these specs' inputs; this pins every
// arrival, start, finish, blocked time, payload check and network counter
// they produce, so a change to the event calendar, the payload draws or
// the collectives that moves a simulated number breaks it.
func TestDataOpResultsPinned(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"allreduce-hd", `{"arrivals":{"count":8,"kind":"poisson","op":{"algorithm":"hd","bytes":256,"kind":"allreduce"},"rate_per_ms":1},"dim":5,"seed":1993}`,
			"b646fb92f4ed877805b0c3bff5ea1cc56c468651befe6ad5979e9c6bd644dd40"},
		{"allreduce-ring", `{"arrivals":{"count":8,"kind":"poisson","op":{"algorithm":"ring","bytes":256,"kind":"allreduce"},"rate_per_ms":1},"dim":5,"seed":1993}`,
			"9fa73b75603d6301ab27b07f57270725bd7fdaa7ef0856083802a59ff497f76b"},
		{"reduce-scatter-poisson", `{"dim":4,"seed":-31,"arrivals":{"kind":"poisson","count":24,"rate_per_ms":3,
			"op":{"kind":"reduce-scatter","bytes":96}}}`,
			"041c26bb2174888e418538aed6afdb90ed852a1f74d76a3eff27bf5964e6e01e"},
		{"alltoall-closed-loop", `{"dim":4,"seed":77,"arrivals":{"kind":"closed-loop","count":12,"clients":3,"think_us":40,
			"op":{"kind":"alltoall","bytes":32}}}`,
			"276c18c12b9632d8c35048d8fa66d1f334f247263b6631264fee49cc8f803842"},
		{"chains-contended", `{"dim":5,"seed":11,"lanes":2,"ops":[
			{"id":"scatter","kind":"scatter","src":9,"bytes":512},
			{"id":"gather","kind":"gather","src":9,"bytes":512,"after":["scatter"],"delay_us":20},
			{"id":"allgather","kind":"allgather","bytes":512,"after":["gather"]},
			{"id":"scatter2","kind":"scatter","src":22,"bytes":768,"at_us":150},
			{"id":"gather2","kind":"gather","src":22,"bytes":768,"after":["scatter2"]},
			{"id":"allgather2","kind":"allgather","bytes":256,"after":["gather2"],"delay_us":10}],
			"arrivals":{"kind":"poisson","count":64,"rate_per_ms":2,
			"op":{"kind":"multicast","algorithm":"w-sort","bytes":2048,"dest_count":12}}}`,
			"6656216a9c2d5946d764d2bc1faa53655b9c2a439d896899301334fed859065a"},
	}
	for _, c := range cases {
		s, err := Parse([]byte(c.spec))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := s.Canonicalize(Limits{}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, op := range res.Ops {
			if dataKind(op.Kind) && !op.DataVerified {
				t.Fatalf("%s: op %s not payload-verified", c.name, op.ID)
			}
		}
		b, err := json.MarshalIndent(struct {
			Spec   *Spec   `json:"spec"`
			Result *Result `json:"result"`
		}{s, res}, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
