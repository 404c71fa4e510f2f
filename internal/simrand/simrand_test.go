package simrand

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds cover math/rand's seed folding: zero and multiples of 2³¹−1
// (which map to its fixed fallback), negatives, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 7, 42, 89482311,
	m31 - 1, m31, m31 + 1, -m31, -(m31 - 1), 2 * m31, 1 << 31, 1 << 40,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// matches reports the first draw at which s and math/rand's source for seed
// disagree, alternating Uint64 and Int63; -1 when all n draws agree.
func matches(s *Source, seed int64, n int) int {
	ref := rand.NewSource(seed).(rand.Source64)
	for i := range n {
		if i%2 == 0 {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				return i
			}
		} else if got, want := s.Int63(), ref.Int63(); got != want {
			return i
		}
	}
	return -1
}

func TestSourceMatchesMathRand(t *testing.T) {
	// 3·607 draws wrap both the feed and the tap index several times.
	const draws = 3 * rngLen
	for _, seed := range edgeSeeds {
		if i := matches(New(seed), seed, draws); i >= 0 {
			t.Errorf("seed %d: stream diverges from rand.NewSource at draw %d", seed, i)
		}
	}
	for seed := int64(-500); seed < 500; seed += 7 {
		if i := matches(New(seed), seed, draws); i >= 0 {
			t.Errorf("seed %d: stream diverges from rand.NewSource at draw %d", seed, i)
		}
	}
}

func TestReseedMidStream(t *testing.T) {
	got := rand.New(New(5))
	want := rand.New(rand.NewSource(5))
	for _, seed := range edgeSeeds {
		// Leave both mid-vector, and the Read buffer part-used, before
		// re-seeding through rand.Rand as the pooled Reset paths do.
		for range 1000 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("before Seed(%d): %d != %d", seed, g, w)
			}
		}
		var gb, wb [3]byte
		got.Read(gb[:])
		want.Read(wb[:])
		if gb != wb {
			t.Fatalf("before Seed(%d): Read %v != %v", seed, gb, wb)
		}
		got.Seed(seed)
		want.Seed(seed)
		for i := range 2 * rngLen {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("after Seed(%d), draw %d: %d != %d", seed, i, g, w)
			}
		}
		if g, w := got.Intn(1000), want.Intn(1000); g != w {
			t.Fatalf("after Seed(%d): Intn %d != %d", seed, g, w)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(2*rngLen))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		if i := matches(New(seed), seed, int(draws)); i >= 0 {
			t.Errorf("seed %d: stream diverges from rand.NewSource at draw %d", seed, i)
		}
	})
}

var sink rand.Source

func BenchmarkSeed(b *testing.B) {
	b.Run("math/rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := range b.N {
			src.Seed(int64(i))
		}
		sink = src
	})
	b.Run("simrand", func(b *testing.B) {
		src := New(1)
		for i := range b.N {
			src.Seed(int64(i))
		}
		sink = src
	})
}
