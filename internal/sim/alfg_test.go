package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
)

// crossSeeds are the seeds every cross-check runs: positive, zero
// (which the seeding loop remaps to 89482311), negative, a seed that
// is ≡ 0 mod 2^31−1 (the other remap branch), and a wide 64-bit one.
var crossSeeds = []int64{1, 0, -7, 1<<31 - 1, 0x7a3b_9f21_0c44_5e17}

// TestALFGRawWordsMatchStdlib pins the raw word stream: Uint64 and
// Int63 of a standalone alfgSource against rand.NewSource over every
// cross seed, including a 10^6-draw horizon on the first seed (the
// window wraps every 607 draws, so a million draws crosses it ~1600
// times).
func TestALFGRawWordsMatchStdlib(t *testing.T) {
	for _, seed := range crossSeeds {
		n := 10_000
		if seed == crossSeeds[0] {
			n = 1_000_000
		}
		ref := rand.NewSource(seed).(rand.Source64)
		var src alfgSource
		src.init(seed, nil, 0)
		for i := 0; i < n; i++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, stdlib %#x", seed, i, got, want)
			}
		}
		// Int63 masks the same words.
		ref = rand.NewSource(seed).(rand.Source64)
		var src2 alfgSource
		src2.init(seed, nil, 0)
		for i := 0; i < 1000; i++ {
			if got, want := src2.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 draw %d = %d, stdlib %d", seed, i, got, want)
			}
		}
	}
}

// TestALFGTableSeedingMatchesStdlib cross-checks the table-driven
// seeding over a thousand random seeds plus the remap edges (0 and
// multiples of 2^31−1 map to 89482311, negatives wrap, the int64
// extremes): the first 700 words, which cross draw 273 where the
// recurrence first reads a slot it rewrote, must equal the stdlib's.
func TestALFGTableSeedingMatchesStdlib(t *testing.T) {
	const m = alfgSeedM
	seeds := []int64{0, 1, -1, m - 1, m, m + 1, 2 * m, 89482311, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(28))
	for len(seeds) < 1010 {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		var src alfgSource
		src.init(seed, nil, 0)
		for i := 0; i < 700; i++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: draw %d = %#x, stdlib %#x", seed, i, got, want)
			}
		}
	}
}

// TestALFGMulMod pins the Mersenne multiply-mod: one step of it equals
// the stdlib's Schrage step at every power-table entry and at the ends
// of the range, and a·b mod 2^31−1 equals the 128-bit remainder for
// random and extreme operand pairs.
func TestALFGMulMod(t *testing.T) {
	alfgInit()
	const m = alfgSeedM
	step := func(x uint64) {
		if got, want := alfgMulMod(alfgSeedA, x), uint64(alfgSeedrand(int32(x))); got != want {
			t.Fatalf("alfgMulMod(a, %d) = %d, Schrage step %d", x, got, want)
		}
	}
	for i := range alfgPow {
		for _, x := range alfgPow[i] {
			step(x)
		}
	}
	for _, x := range []uint64{1, 2, m - 2, m - 1} {
		step(x)
	}
	rng := rand.New(rand.NewSource(29))
	edges := []uint64{0, 1, 2, m - 2, m - 1}
	for n := 0; n < 2000; n++ {
		a, b := uint64(rng.Int63n(m)), uint64(rng.Int63n(m))
		if n < len(edges)*len(edges) {
			a, b = edges[n/len(edges)], edges[n%len(edges)]
		}
		hi, lo := bits.Mul64(a, b)
		_, want := bits.Div64(hi, lo, m)
		if got := alfgMulMod(a, b); got != want {
			t.Fatalf("alfgMulMod(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

// drawer is the RNG method surface, so a generator can be compared
// with the stdlib reference below.
type drawer interface {
	Float64() float64
	Norm() float64
	Exp(mean float64) float64
	Intn(n int) int
	Perm(n int) []int
	ComplexNorm(sigma2 float64) complex128
	Rayleigh(sigma float64) float64
	Uniform(lo, hi float64) float64
	Gauss(mean, std float64) float64
	Bool(p float64) bool
}

// stdRNG is the reference: every RNG method written on an untouched
// stdlib rand.New(rand.NewSource(seed)).
type stdRNG struct{ r *rand.Rand }

func newStdRNG(seed int64) stdRNG { return stdRNG{rand.New(rand.NewSource(seed))} }

// stdStream is the reference for stream name under master seed: the
// stdlib generator at the seed the factories derive, hashed here with
// hash/fnv rather than the package's inlined fnv64a.
func stdStream(master int64, name string) stdRNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	return newStdRNG(master ^ int64(h.Sum64()))
}

func (g stdRNG) Float64() float64                { return g.r.Float64() }
func (g stdRNG) Norm() float64                   { return g.r.NormFloat64() }
func (g stdRNG) Exp(mean float64) float64        { return g.r.ExpFloat64() * mean }
func (g stdRNG) Intn(n int) int                  { return g.r.Intn(n) }
func (g stdRNG) Perm(n int) []int                { return g.r.Perm(n) }
func (g stdRNG) Uniform(lo, hi float64) float64  { return lo + (hi-lo)*g.r.Float64() }
func (g stdRNG) Gauss(mean, std float64) float64 { return mean + std*g.r.NormFloat64() }
func (g stdRNG) Bool(p float64) bool             { return g.r.Float64() < p }
func (g stdRNG) ComplexNorm(sigma2 float64) complex128 {
	s := math.Sqrt(sigma2 / 2)
	return complex(s*g.r.NormFloat64(), s*g.r.NormFloat64())
}
func (g stdRNG) Rayleigh(sigma float64) float64 {
	u := g.r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return sigma * math.Sqrt(-2*math.Log(1-u))
}

// drawMix exercises every RNG distribution method in a fixed rotation
// and returns a value per step, so two generators can be compared
// across the full method surface (Float64, Norm, Exp, Intn, Perm,
// ComplexNorm, Rayleigh, Uniform, Gauss, Bool).
func drawMix(g drawer, steps int, sink func(vs ...float64)) {
	for i := 0; i < steps; i++ {
		switch i % 10 {
		case 0:
			sink(g.Float64())
		case 1:
			sink(g.Norm())
		case 2:
			sink(g.Exp(3.5))
		case 3:
			sink(float64(g.Intn(1000 + i%7)))
		case 4:
			p := g.Perm(8)
			for _, v := range p {
				sink(float64(v))
			}
		case 5:
			c := g.ComplexNorm(2.0)
			sink(real(c), imag(c))
		case 6:
			sink(g.Rayleigh(1.7))
		case 7:
			sink(g.Uniform(-4, 9))
		case 8:
			sink(g.Gauss(1, 2.5))
		case 9:
			b := 0.0
			if g.Bool(0.3) {
				b = 1
			}
			sink(b)
		}
	}
}

// compareRNGs drives two RNGs through the identical method rotation
// and requires bitwise-equal outputs.
func compareRNGs(t *testing.T, name string, a, b drawer, steps int) {
	t.Helper()
	var av, bv []float64
	drawMix(a, steps, func(vs ...float64) { av = append(av, vs...) })
	drawMix(b, steps, func(vs ...float64) { bv = append(bv, vs...) })
	if len(av) != len(bv) {
		t.Fatalf("%s: draw count mismatch %d vs %d", name, len(av), len(bv))
	}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			t.Fatalf("%s: value %d = %v, want %v", name, i, av[i], bv[i])
		}
	}
}

// TestArenaStreamMatchesEagerStream is the distribution-level golden
// cross-check: for every cross seed, an arena-backed lazily seeded
// stream must match rand.New(rand.NewSource(s)) at the seed derived
// for the same (seed, name) over every RNG method — unbudgeted (window), small-budgeted (tape),
// and a deliberately undersized budget that forces a spill across the
// comparison horizon (the lazy-seed and tape-exhaustion boundaries are
// exactly where a porting bug would strike).
func TestArenaStreamMatchesEagerStream(t *testing.T) {
	const steps = 4000 // ~8k draws: far past any tape and several window wraps
	for _, seed := range crossSeeds {
		for _, tc := range []struct {
			name   string
			budget int
		}{
			{"window", 0},
			{"tape-roomy", 5000}, // ≥ alfgLen entries: window representation
			{"tape-exact", 520},  // fits in one tape
			{"tape-spill", 40},   // exhausts after ~46 padded entries
			{"tape-one", 1},      // minimum tape, immediate spill
		} {
			arena := NewArena()
			as := arena.Streams(seed)
			compareRNGs(t, tc.name,
				as.StreamBudget("cross."+tc.name, tc.budget),
				stdStream(seed, "cross."+tc.name), steps)
			if tc.budget > 0 && tc.budget < 500 {
				if sp := arena.Stats().Spills; sp != 1 {
					t.Fatalf("%s seed %d: expected exactly one spill, got %d", tc.name, seed, sp)
				}
			}
		}
	}
}

// TestArenaStreamLazySeedBoundary interleaves two streams so one seeds
// long after the other has drawn thousands of values: seeding time
// must not leak between streams. The reference is the stdlib.
func TestArenaStreamLazySeedBoundary(t *testing.T) {
	arena := NewArena()
	as := arena.Streams(99)
	a, b := as.Stream("a"), as.StreamBudget("b", 64)
	ea, eb := stdStream(99, "a"), stdStream(99, "b")
	for i := 0; i < 5000; i++ {
		if got, want := a.Float64(), ea.Float64(); got != want {
			t.Fatalf("stream a draw %d: %v != %v", i, got, want)
		}
	}
	if arena.Stats().Seeded != 1 {
		t.Fatalf("stream b seeded before first draw: %+v", arena.Stats())
	}
	for i := 0; i < 200; i++ { // crosses b's 64+8+16 tape boundary
		if got, want := b.Norm(), eb.Norm(); got != want {
			t.Fatalf("stream b draw %d: %v != %v", i, got, want)
		}
	}
}

// TestALFGSeedReset pins Seed(): restarting a source from a new seed
// matches a fresh stdlib source.
func TestALFGSeedReset(t *testing.T) {
	var src alfgSource
	src.init(5, nil, 0)
	for i := 0; i < 100; i++ {
		src.Uint64()
	}
	src.Seed(77)
	ref := rand.NewSource(77).(rand.Source64)
	for i := 0; i < 700; i++ {
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("post-Seed draw %d: %#x != %#x", i, got, want)
		}
	}
}

// TestArenaAccounting checks the stats the fleet's RNG-bytes-per-UE
// benchmark metric is built on: streams/seeded/tape/vec counts and
// live bytes.
func TestArenaAccounting(t *testing.T) {
	arena := NewArena()
	as := arena.Streams(3)
	cold := as.Stream("cold")
	_ = cold
	tape := as.StreamBudget("tape", 100)
	vec := as.Stream("vec")
	tape.Float64()
	vec.Float64()
	st := arena.Stats()
	if st.Streams != 3 || st.Seeded != 2 || st.Tapes != 1 || st.Vecs != 1 || st.Spills != 0 {
		t.Fatalf("stats = %+v", st)
	}
	wantLive := int64((100+100/8+16)+alfgLen) * 8
	if st.LiveBytes != wantLive {
		t.Fatalf("LiveBytes = %d, want %d", st.LiveBytes, wantLive)
	}
	if st.ReservedBytes < st.LiveBytes {
		t.Fatalf("ReservedBytes %d < LiveBytes %d", st.ReservedBytes, st.LiveBytes)
	}
}

// TestArenaConcurrentDerivation is the race-coverage satellite: many
// goroutines deriving, lazily seeding, and spilling streams from one
// shared arena, under -race in CI. Values must still match the stdlib
// generator per stream.
func TestArenaConcurrentDerivation(t *testing.T) {
	arena := NewArena()
	as := arena.Streams(41)
	const workers = 16
	const streamsPer = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for s := 0; s < streamsPer; s++ {
				name := "race." + string(rune('a'+w)) + "." + string(rune('a'+s))
				g := as.StreamBudget(name, 20) // tiny budget: most spill
				e := stdStream(41, name)
				for i := 0; i < 500; i++ {
					if got, want := g.Float64(), e.Float64(); got != want {
						errc <- fmt.Errorf("worker %d stream %q draw %d: %v != %v", w, name, i, got, want)
						return
					}
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	st := arena.Stats()
	if st.Streams != workers*streamsPer || st.Seeded != st.Streams {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFNVInlineMatchesStdlib pins the inlined FNV-1a fold against
// hash/fnv for representative stream names; a drift here would silently
// re-seed every stream in the repository.
func TestFNVInlineMatchesStdlib(t *testing.T) {
	names := []string{"", "a", "ran.fading", "ran.shadow.bs.17",
		"mobility.meas", "replica.12345", "fig12.etu.0042", "fault.injector"}
	for _, n := range names {
		h := fnv.New64a()
		h.Write([]byte(n))
		if got, want := fnv64a(n), h.Sum64(); got != want {
			t.Fatalf("fnv64a(%q) = %#x, stdlib %#x", n, got, want)
		}
	}
}

// rngSink makes a derived stream escape, as it does when a runner
// stores it, so the compiler cannot keep the RNG box on the stack.
var rngSink *RNG

// TestStreamDerivationZeroAlloc pins what deriving a stream costs the
// heap: hashing the name allocates nothing, and a lazy arena stream or
// a seed window carved from a warm arena chunk allocates the RNG box
// alone — one 112 B object, with no hasher and no stdlib source.
func TestStreamDerivationZeroAlloc(t *testing.T) {
	lazy := NewArena().Streams(1)
	windows := NewArena().Streams(1)
	windows.Stream("warm").Float64() // carve the arena chunk outside the count
	cases := []struct {
		name          string
		fn            func()
		allocs, bytes uint64
	}{
		{"fnv64a", func() { _ = fnv64a("ran.shadow.cell.123") }, 0, 0},
		{"lazy_stream", func() { rngSink = lazy.StreamBudget("ran.shadow.cell.123", 64) }, 1, 112},
		{"seed_window", func() {
			rngSink = windows.Stream("ran.shadow.cell.123")
			rngSink.Float64()
		}, 1, 112},
	}
	for _, c := range cases {
		// 50 windows fit in the warm 512 KiB chunk, so no run carves a
		// new one.
		allocs, bytes := heapPerRun(50, c.fn)
		if allocs != c.allocs || bytes != c.bytes {
			t.Errorf("%s: %d allocs, %d B per run, want %d allocs, %d B",
				c.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// heapPerRun is testing.AllocsPerRun that also reports bytes: f runs
// once to warm up, then runs times on one P, and the heap objects and
// bytes of the timed runs are averaged.
func heapPerRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}

func BenchmarkALFGUint64(b *testing.B) {
	var src alfgSource
	src.init(1, nil, 0)
	src.Uint64()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Uint64()
	}
}

// BenchmarkStreamNew is the standalone stream-derivation cost: one op
// hashes the name and boxes a generator that seeds its own heap window
// on first draw.
func BenchmarkStreamNew(b *testing.B) {
	streams := NewStreams(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rngSink = streams.Stream("bench.stream")
	}
}

// BenchmarkStreamNewLazy is the arena twin: one op derives the same
// stream from the fleet's arena factory, with seeding deferred to a
// first draw that never comes — the cost a fleet build pays per stream
// that is created but may stay cold.
func BenchmarkStreamNewLazy(b *testing.B) {
	streams := NewArena().Streams(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rngSink = streams.StreamBudget("bench.stream", 64)
	}
}

// BenchmarkSeedWindow is the set-up cost a fleet pays per unbounded
// stream: one op derives an arena stream and takes its first draw,
// which seeds its 607-word window. Every 100 ops the arena is replaced
// with the clock stopped, and one warm-up window carves its 512 KiB
// chunk there too, so resident memory stays bounded and the timed ops
// fit in that chunk.
func BenchmarkSeedWindow(b *testing.B) {
	var streams *ArenaStreams
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100 == 0 {
			b.StopTimer()
			streams = NewArena().Streams(1)
			sink += streams.Stream("bench.warm").Float64()
			b.StartTimer()
		}
		sink += streams.Stream("bench.stream").Float64()
	}
	_ = sink
}
