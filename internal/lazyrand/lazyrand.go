// Package lazyrand is the simulator's seeded random source: a math/rand
// generator that returns exactly math/rand's stream for every seed, but
// seeds in constant time.
//
// math/rand's additive lagged Fibonacci source seeds all 607 words of its
// register from the Lehmer LCG x ← 48271·x mod (2³¹−1), three LCG steps
// per word, XORed with a fixed table. A short draw — a 32-destination set
// reads about 64 words — pays for all 607. The LCG can jump straight to
// any step (x_k = 48271^k·x_0), so this source stores only the seed and
// computes each register word the first time a draw touches it. The first
// 607 draws write every word once; from then on a draw is math/rand's
// plain step.
package lazyrand

import "math/rand"

const (
	regLen  = 607 // register length (math/rand's rngLen)
	regTap  = 273 // lag of the second tap (math/rand's rngTap)
	lcgMul  = 48271
	lcgMod  = 1<<31 - 1
	mask63  = 1<<63 - 1
	warmup  = 20          // LCG steps math/rand discards before word 0
	zeroSub = 89482311    // math/rand's replacement for a zero seed
	derive  = 0x5eed_c0de // any seed recovers the same table
)

// pow[i] is 48271^(warmup+1+3i) mod (2³¹−1): the LCG multiplier that takes
// the normalised seed to the first of register word i's three steps.
var pow = powers()

// cooked[i] is math/rand's fixed XOR mask for register word i.
var cooked = cookedMasks()

// New returns a generator seeded with seed that draws exactly what
// rand.New(rand.NewSource(seed)) draws, through every method, including
// after Seed.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// FillIntn sets dst[i] to base + v_i, where v_0, v_1, … are the values
// New(seed).Intn(n) draws, in order; a float64 holds each exactly. It
// accepts only powers of two n in [1, 2³⁰], where Intn returns the top
// bits of one Int63 draw, and panics on any other n. The first regLen
// draws take the source's lazy path; after them each value is math/rand's
// plain register step, run in place with no rand.Rand or Source call per
// draw. base saves a caller that shifts the values a second pass over dst.
func FillIntn(dst []float64, seed int64, n int, base int64) {
	if n <= 0 || n > 1<<30 || n&(n-1) != 0 {
		panic("lazyrand: FillIntn needs a power of two n in [1, 2^30]")
	}
	// Intn(n) is Int31n(n), which for a power of two is Int31() & (n−1),
	// and Int31 is Int63 >> 32: bits 32 to 61 of the register word under
	// the largest mask, so Int63's clearing of bit 63 never shows.
	m := int64(n - 1)
	var s source
	s.Seed(seed)
	first := min(len(dst), regLen)
	for i := range dst[:first] {
		dst[i] = float64(base + s.Int63()>>32&m)
	}
	// The steady state: both indices step down, wrapping from 0 to
	// regLen−1, so each inner loop runs until one of them wraps.
	vec := &s.vec
	tap, feed := s.tap, s.feed
	for rest := dst[first:]; len(rest) > 0; {
		if tap == 0 {
			tap = regLen
		}
		if feed == 0 {
			feed = regLen
		}
		k := min(tap, feed, len(rest))
		for i := range rest[:k] {
			tap--
			feed--
			x := vec[feed] + vec[tap]
			vec[feed] = x
			rest[i] = float64(base + x>>32&m)
		}
		rest = rest[k:]
	}
}

// source is math/rand's rngSource with a lazily written register. After
// Seed, the feed reaches every word once in the first regLen draws, and
// no draw reads a word before its first write except the tap, which during
// the first regTap draws reads words the feed reaches regLen−regTap draws
// later. Those draws compute the tap word in place; every other word is
// computed when the feed reaches it. Each word is computed once, and no
// word of an earlier seed is read.
type source struct {
	tap, feed int
	lazy      int    // draws left before every register word is written
	x0        uint64 // normalised seed, in [1, 2³¹−1)
	vec       [regLen]int64
}

// Seed restarts the stream at seed, as math/rand's rngSource.Seed does,
// without touching the register.
func (s *source) Seed(seed int64) {
	s.tap, s.feed, s.lazy = 0, regLen-regTap, regLen
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSub
	}
	s.x0 = uint64(seed)
}

// Int63 returns a non-negative pseudo-random 63-bit integer. rand.Rand
// draws through it for every method but Uint64, so its steady-state draw
// is math/rand's, instruction for instruction: Seed parks the tap at 0,
// and the lazy draws run inside the tap's wrap-around branch, which every
// draw tests anyway. Int63 calls nothing, so it needs no stack check.
func (s *source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		if s.lazy > 0 {
			// One of the first regLen draws: the tap runs from regLen−1
			// down to 0 (lazy, once decremented) and the feed regTap
			// below it, modulo regLen. A feed index below regLen−regTap
			// is first touched now; one at or above it was computed by
			// the tap's read regLen−regTap draws earlier, and those
			// reads, of unwritten tap words, fall in draws whose feed
			// index is below regLen−regTap.
			s.lazy--
			tap, feed := s.lazy, s.lazy-regTap
			if feed >= 0 {
				s.vec[feed] = s.word(feed)
				if tap >= regLen-regTap {
					s.vec[tap] = s.word(tap)
				}
			} else {
				feed += regLen
			}
			s.tap, s.feed = 0, feed
			x := s.vec[feed] + s.vec[tap]
			s.vec[feed] = x
			return x & mask63
		}
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & mask63
}

// Uint64 returns a pseudo-random 64-bit integer: the whole register word
// that Int63's draw wrote.
func (s *source) Uint64() uint64 {
	s.Int63()
	return uint64(s.vec[s.feed])
}

// word is register word i as math/rand's Seed computes it.
func (s *source) word(i int) int64 { return lcgWord(s.x0, i) ^ cooked[i] }

// lcgWord is the LCG part of register word i as math/rand's Seed
// computes it from the normalised seed x0; the word is lcgWord ^ cooked[i].
func lcgWord(x0 uint64, i int) int64 {
	x := x0 * pow[i] % lcgMod
	u := int64(x) << 40
	x = x * lcgMul % lcgMod
	u ^= int64(x) << 20
	x = x * lcgMul % lcgMod
	return u ^ int64(x)
}

func powers() (p [regLen]uint64) {
	x := uint64(1)
	for range warmup + 1 {
		x = x * lcgMul % lcgMod
	}
	for i := range p {
		p[i] = x
		for range 3 {
			x = x * lcgMul % lcgMod
		}
	}
	return p
}

// cookedMasks recovers math/rand's cooked table from math/rand itself
// rather than copying it: the first regLen outputs of a seeded source are
// its register after regLen additions, which run backwards restore to the
// seeded register; XORing out the seed's LCG words leaves the masks.
func cookedMasks() (c [regLen]int64) {
	src := rand.NewSource(derive).(rand.Source64)
	tap, feed := 0, regLen-regTap
	for range regLen {
		tap, feed = (tap+regLen-1)%regLen, (feed+regLen-1)%regLen
		c[feed] = int64(src.Uint64())
	}
	for range regLen { // tap and feed are back at their seeded positions
		c[feed] -= c[tap]
		tap, feed = (tap+1)%regLen, (feed+1)%regLen
	}
	for i := range c {
		c[i] ^= lcgWord(derive, i)
	}
	return c
}
