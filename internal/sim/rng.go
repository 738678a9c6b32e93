// Package sim provides the randomness substrate used by the RAN
// emulator and the evaluation harness: named deterministic
// random-number streams, so that every experiment in the repository is
// reproducible bit-for-bit from its seed. Simulated time is each
// engine's own tick loop; this package keeps no clock.
//
// # Concurrency contract
//
// RNG is single-goroutine: a generator's sequence is its state, so two
// goroutines sharing one RNG would both race and destroy determinism
// (the interleaving would decide who gets which draw). Streams, by
// contrast, is immutable and safe for concurrent use. Parallel code
// must therefore derive one named stream (or one seed) per work item —
// e.g. Stream(fmt.Sprintf("fig12.%s.%04d", scenario, draw)) — and keep
// it private to the goroutine running that item. This is the seed
// schedule rem/internal/par's deterministic fan-out relies on: each
// item's draws depend only on (master seed, item name/index), never on
// which worker ran it or in what order.
package sim

import (
	"math"
	"math/rand"
	"strconv"
)

// RNG wraps math/rand with a few distributions the channel and network
// models need. It is deliberately not safe for concurrent use; create
// one stream per logical noise source — and, in parallel code, one
// stream per work item (see Streams and the package comment).
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Norm returns a standard normal sample.
func (g *RNG) Norm() float64 { return g.r.NormFloat64() }

// Gauss returns a normal sample with the given mean and stddev.
func (g *RNG) Gauss(mean, std float64) float64 { return mean + std*g.r.NormFloat64() }

// Exp returns an exponential sample with the given mean (> 0).
func (g *RNG) Exp(mean float64) float64 { return g.r.ExpFloat64() * mean }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// ComplexNorm returns a circularly-symmetric complex Gaussian sample
// with total variance sigma2 (variance sigma2/2 per component). This is
// the standard model for both Rayleigh channel taps and AWGN.
func (g *RNG) ComplexNorm(sigma2 float64) complex128 {
	s := math.Sqrt(sigma2 / 2)
	return complex(s*g.r.NormFloat64(), s*g.r.NormFloat64())
}

// Rayleigh returns a Rayleigh-distributed sample with scale sigma.
func (g *RNG) Rayleigh(sigma float64) float64 {
	u := g.r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return sigma * math.Sqrt(-2*math.Log(1-u))
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Streams derives independent named RNGs from a master seed, so that
// adding a new consumer never perturbs the draws seen by existing ones
// (a classic reproducibility hazard with a single shared stream).
// Streams itself is immutable and safe for concurrent use; the RNGs it
// returns are not — derive one per goroutine/work item.
type Streams struct {
	seed int64
}

// NewStreams creates a stream factory rooted at the master seed.
func NewStreams(seed int64) *Streams { return &Streams{seed: seed} }

// Stream returns the deterministic RNG for a name. Calling it twice
// with the same name yields generators that produce identical
// sequences.
func (s *Streams) Stream(name string) *RNG {
	return NewRNG(s.seed ^ int64(fnv64a(name)))
}

// StreamBudget returns the same stream as Stream(name). The draw
// budget is an arena-path residency hint (see ArenaStreams); the
// eager stdlib representation has nothing to size by it, so it is
// accepted — keeping call sites uniform across factories — and
// ignored.
func (s *Streams) StreamBudget(name string, budget int) *RNG { return s.Stream(name) }

// Seed returns the master seed the factory was built with.
func (s *Streams) Seed() int64 { return s.seed }

// StreamSource is the factory interface scenario builders consume, so
// a build can run on either eagerly seeded heap streams (*Streams, the
// single-run path) or lazily seeded arena streams (*ArenaStreams, the
// fleet path). Both derive seeds identically: for every name and
// master seed the two factories' RNGs emit the same draw sequence.
type StreamSource interface {
	Stream(name string) *RNG
	StreamBudget(name string, budget int) *RNG
	Seed() int64
}

var (
	_ StreamSource = (*Streams)(nil)
	_ StreamSource = (*ArenaStreams)(nil)
)

// fnv64a is FNV-1a over the name, inlined so stream derivation does
// not allocate a hasher per call (hash/fnv's New64a escapes). The
// constants and fold are exactly hash/fnv's; TestFNVInlineMatchesStdlib
// pins equality, since every seed schedule in the repository depends
// on this hash.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// ReplicaSeed derives the master seed for independent replica (or UE)
// i of a run rooted at master. It uses the same FNV name-hashing as
// Stream, so replica seed schedules are well-spread and stable: unlike
// arithmetic spacing (seed + i*k), two replicas of different masters
// can never collide by landing on the same arithmetic progression.
// Every fan-out that runs "N copies of the same scenario with
// independent randomness" must use this helper so CLI, service and
// evaluation seed schedules agree.
func ReplicaSeed(master int64, i int) int64 {
	return master ^ int64(fnv64a("replica."+strconv.Itoa(i)))
}
