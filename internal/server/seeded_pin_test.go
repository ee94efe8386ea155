package server

import "testing"

// TestSeededCacheKeysPinned pins the cache keys of requests whose
// destination sets are seeded draws: normalization replaces dest_count and
// seed with the drawn set, so the key changes if any seeded stream does.
func TestSeededCacheKeysPinned(t *testing.T) {
	k := NewKeyer(Config{})
	cases := []struct {
		path, body, want string
	}{
		{"/v1/simulate", `{"dim":6,"algorithm":"w-sort","src":5,"dest_count":32,"seed":7}`, "9151dca7e14b995a32aa4e2514008224c4632ba5d812ca93fd21a35b6d9ade36"},
		{"/v1/simulate", `{"dim":10,"algorithm":"u-cube","src":1000,"dest_count":700,"seed":-9223372036854775808}`, "666a21db024106d419506375f997fbd030139246ae4484d69469b77a7a9174f8"},
		{"/v1/simulate", `{"dim":5,"algorithm":"maxport","src":0,"dest_count":8,"seed":2147483647}`, "7062836c9dc4a0badde126e4d901ce6c4d80086603d226020a2e72edde1aae85"},
		{"/v1/tree", `{"dim":7,"algorithm":"w-sort","src":3,"dest_count":40,"seed":4611686018427387904}`, "661bde1a8b9af137c98b1088c395793d540adedc21279c0eb095c98c5d1fc373"},
		{"/v1/tree", `{"dim":4,"algorithm":"u-cube","src":15,"dest_count":6}`, "47031f5122d91b6649173f0e44efe8fc2ac160f52828351eefce881b20579b6e"},
		{"/v1/simulate/fault-tolerant", `{"dim":5,"algorithm":"w-sort","src":2,"dest_count":12,"seed":-1,"link_faults":4,"fault_seed":5,"drop_rate":0.1}`, "9b1af66914ad2a9058110874e31f9ecd8211741f650233da1b3e59599978ac79"},
		{"/v1/traffic", `{"dim":5,"seed":8,"arrivals":{"kind":"poisson","count":24,"rate_per_ms":2,"op":{"kind":"multicast","dest_count":10}}}`, "00c8fb151aca495acefc461cc76cc97860ba390a9e02e9e5a75fae3415e6cb03"},
	}
	for _, c := range cases {
		got, err := k.Key(c.path, []byte(c.body))
		if err != nil {
			t.Fatalf("%s %s: %v", c.path, c.body, err)
		}
		if got != c.want {
			t.Errorf("%s %s: key %s, want %s", c.path, c.body, got, c.want)
		}
	}
}
