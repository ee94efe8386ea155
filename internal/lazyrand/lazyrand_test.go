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

// fillLengths straddle the register's phases: empty, the first draw, the
// tap's lazy reads (through 273), the feed's first pass (334), the end of
// the lazy path (607) and the steady state after one and many passes.
var fillLengths = []int{0, 1, regTap - 1, regTap, regLen - regTap, regLen - 1, regLen, regLen + 1, 2*regLen + 3, 32768}

// checkFill compares FillIntn's output for (seed, n), with a base of
// −n/2, with a rand.Rand loop over math/rand, element by element.
func checkFill(t *testing.T, seed int64, n int, dst []float64, want *rand.Rand) {
	t.Helper()
	FillIntn(dst, seed, n, -int64(n/2))
	for i, got := range dst {
		if w := float64(want.Intn(n) - n/2); got != w {
			t.Fatalf("seed %d, n %d, len %d: value %d is %v, want %v", seed, n, len(dst), i, got, w)
		}
	}
}

// FillIntn writes exactly math/rand's Intn stream for every seed, at every
// n it accepts (each power of two up to 2³⁰), over lengths that end in
// every phase of the register.
func TestFillIntnMatchesMathRand(t *testing.T) {
	dst := make([]float64, fillLengths[len(fillLengths)-1])
	for _, seed := range seeds {
		for k := range 31 {
			for _, l := range fillLengths {
				checkFill(t, seed, 1<<k, dst[:l], rand.New(rand.NewSource(seed)))
			}
		}
	}
}

// FillIntn refuses every n whose Intn is not the top bits of one draw, so
// it cannot silently return a different stream.
func TestFillIntnRejectsOtherN(t *testing.T) {
	for _, n := range []int{0, -1, -1024, 3, 6, 1000, 1023, 1<<30 + 1, 1 << 31, 1 << 40, math.MaxInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FillIntn accepted n = %d", n)
				}
			}()
			FillIntn(make([]float64, 4), 1, n, 0)
		}()
	}
}

// FuzzFillIntnMatchesMathRand checks FillIntn against math/rand over
// arbitrary seeds, lengths and accepted n.
func FuzzFillIntnMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(0), uint8(10))
	f.Add(int64(math.MinInt64), uint16(regLen), uint8(0))
	f.Add(int64(lcgMod), uint16(regLen+1), uint8(30))
	f.Add(int64(1993), uint16(5000), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, length uint16, k uint8) {
		checkFill(t, seed, 1<<(k%31), make([]float64, length), rand.New(rand.NewSource(seed)))
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

// BenchmarkFillIntn is RandomData's draw for one 5-cube allreduce of
// 256-byte blocks: 32,768 values of Intn(1024) − 512, by FillIntn and by
// a rand.Rand loop over New.
func BenchmarkFillIntn(b *testing.B) {
	dst := make([]float64, 32768)
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FillIntn(dst, int64(i), 1024, -512)
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := New(int64(i))
			for k := range dst {
				dst[k] = float64(rng.Intn(1024) - 512)
			}
		}
	})
}
