package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// seeds covers math/rand's seed normalisation: zero and the multiples of
// 2³¹−1 (which it replaces with 89482311), negatives, and the int64
// extremes.
var seeds = []int64{
	0, 1, -1, 2, 42, 1993, -1993, 89482311,
	lcgMod, -lcgMod, 3 * lcgMod, -5 * lcgMod, lcgMod - 1, lcgMod + 1,
	1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
}

// draw applies method op to both generators and reports whether the
// results agree. It covers every rand.Rand method that consumes the
// source: Intn and Int31n at sizes that are and are not powers of two
// (which take different paths), the float and exponential/normal
// variates, and the slice permutations.
func draw(t *testing.T, op byte, got, want *rand.Rand) {
	t.Helper()
	var g, w any
	switch op % 14 {
	case 0:
		g, w = got.Int63(), want.Int63()
	case 1:
		g, w = got.Uint64(), want.Uint64()
	case 2:
		g, w = got.Intn(64), want.Intn(64)
	case 3:
		g, w = got.Intn(63), want.Intn(63)
	case 4:
		g, w = got.Int31n(1<<20), want.Int31n(1<<20)
	case 5:
		g, w = got.Int31n(1000003), want.Int31n(1000003)
	case 6:
		g, w = got.Intn(1<<40+7), want.Intn(1<<40+7)
	case 7:
		g, w = got.Float64(), want.Float64()
	case 8:
		g, w = got.ExpFloat64(), want.ExpFloat64()
	case 9:
		g, w = got.NormFloat64(), want.NormFloat64()
	case 10:
		g, w = got.Uint32(), want.Uint32()
	case 11:
		gp, wp := got.Perm(9), want.Perm(9)
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("Perm: %v, want %v", gp, wp)
			}
		}
		return
	case 12:
		gs, ws := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
		got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
		want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		for i := range gs {
			if gs[i] != ws[i] {
				t.Fatalf("Shuffle: %v, want %v", gs, ws)
			}
		}
		return
	case 13:
		g, w = got.Int63n(1e15+37), want.Int63n(1e15+37)
	}
	if g != w {
		t.Fatalf("method %d: %v, want %v", op%14, g, w)
	}
}

// Every seed, well past two passes over the register, through a mix of
// methods; each method also gets a long run of its own.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range seeds {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 3*regLen; i++ {
			draw(t, byte(i*7+i/5), got, want)
		}
		for op := byte(0); op < 14; op++ {
			got, want := New(seed), rand.New(rand.NewSource(seed))
			for i := 0; i < 2*regLen+5; i++ {
				draw(t, op, got, want)
			}
		}
	}
}

// Reseeding restarts the stream exactly, whether the register was still
// partly unwritten (before the 607th draw), just full (at it), or long in
// the steady state: no word of the earlier seed leaks into the new stream.
func TestReseedMatchesMathRand(t *testing.T) {
	for _, n := range []int{0, 1, regTap - 1, regTap, regLen - regTap, regLen - 1, regLen, regLen + 1, 2*regLen + 3} {
		for i, seed := range seeds {
			got, want := New(seed), rand.New(rand.NewSource(seed))
			for k := 0; k < n; k++ {
				draw(t, 1, got, want)
			}
			next := seeds[(i+5)%len(seeds)]
			got.Seed(next)
			want.Seed(next)
			for k := 0; k < 2*regLen+1; k++ {
				draw(t, byte(k), got, want)
			}
		}
	}
}

// FuzzStreamMatchesMathRand drives both generators with an arbitrary
// method sequence; a 0xff byte reseeds both with a seed derived from the
// position, so reseeds land anywhere in the first pass or after it.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(int64(math.MinInt64), []byte{1, 0xff, 3, 0xff, 0xff, 7})
	f.Add(int64(lcgMod), make([]byte, 700))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for i, op := range ops {
			if op == 0xff {
				s := seed ^ int64(i)*0x5851f42d4c957f2d
				got.Seed(s)
				want.Seed(s)
				continue
			}
			// Repeat each method so short inputs still cross 607 draws.
			for range 4 {
				draw(t, op, got, want)
			}
		}
	})
}

var sink int

// BenchmarkSeedDraw32 seeds and draws 32 destinations' worth of Intn, the
// shape of one dest_count draw.
func BenchmarkSeedDraw32(b *testing.B) {
	for _, c := range []struct {
		name string
		rng  *rand.Rand
	}{{"lazyrand", New(1)}, {"math-rand", rand.New(rand.NewSource(1))}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.rng.Seed(int64(i))
				for k := 0; k < 32; k++ {
					sink += c.rng.Intn(63 - k)
				}
			}
		})
	}
}

// BenchmarkSteadyInt63 is a long stream's per-draw cost, past the first
// pass over the register.
func BenchmarkSteadyInt63(b *testing.B) {
	for _, c := range []struct {
		name string
		rng  *rand.Rand
	}{{"lazyrand", New(1)}, {"math-rand", rand.New(rand.NewSource(1))}} {
		b.Run(c.name, func(b *testing.B) {
			for k := 0; k < regLen; k++ {
				c.rng.Int63()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += int(c.rng.Int63())
			}
		})
	}
}
