package sim

import (
	"fmt"
	"math/rand"
	"sync"
)

// This file reimplements the math/rand additive lagged-Fibonacci
// generator (Mitchell & Reeds; rand.NewSource's rngSource) bit-exactly,
// so that generator state can live in caller-managed memory — a
// contiguous per-fleet arena — instead of one heap-scattered ~4.9 KB
// object per stream, and can be seeded lazily on first draw. The Go 1
// compatibility promise pins rand.NewSource's sequence for any seed,
// which makes bit-exactness a testable property: alfg_test.go
// cross-checks raw word sequences and every RNG distribution against
// the stdlib over multiple seeds and 10^6-draw horizons.
//
// Three representations, chosen per stream:
//
//   - unseeded: nothing allocated. A stream that never draws (a
//     disarmed fault verdict stream, a cold stream of a short run)
//     pays neither the 607-word seeding loop nor the memory.
//   - tape: for streams created with a small draw budget (for example
//     tick-driven shadowing, which draws once per tick of a run of
//     known duration) the first draw runs the seeding loop into a
//     stack scratch, rolls the recurrence forward, and records only
//     the outputs — budget+slack words instead of 607. The recorded
//     words are exactly what the full generator would emit, so draws
//     are bit-identical; only residency changes.
//   - vec: the classic 607-word rolling window, for unbounded or
//     large-budget streams. The window lives in the arena (or its own
//     allocation for standalone sources).
//
// A tape that runs dry upgrades itself transparently: the source
// reseeds into a full 607-word window, fast-forwards by the consumed
// draw count, and continues — slower for that one stream, never wrong.
// Budgets are therefore performance hints, not correctness contracts.
const (
	alfgLen  = 607
	alfgTap  = 273
	alfgMask = 1<<63 - 1

	// Seeding LCG (Lehmer, Schrage decomposition), exactly as in
	// math/rand/rng.go.
	alfgSeedA = 48271
	alfgSeedM = 1<<31 - 1
	alfgSeedQ = 44488
	alfgSeedR = 3399

	// tapeSlack pads a draw budget for the stdlib distributions that
	// consume a variable number of raw words (the ziggurat normal and
	// exponential reject ~2–3% of candidates): entries = budget +
	// budget/8 + 16. Exceeding the padded tape is still correct — the
	// source spills to a full window — just slower.
	tapeSlackShift = 3
	tapeSlackMin   = 16
)

// alfgCooked is rand.NewSource's seeding constant vector — the
// generator state the stdlib "cooked" by rolling 7.8·10^12 steps past
// seed 1, XOR-mixed into every freshly seeded vector. Rather than
// embedding the 607-literal table, alfgInit recovers it from the
// stdlib itself at first use: the recurrence x_k = v[feed_k]+v[tap_k]
// is linear mod 2^64, so 607 observed outputs of rand.NewSource(1)
// forward-substitute back into the fresh seed-1 vector, and stripping
// the (reimplemented) seeding LCG's contribution leaves the cooked
// words. This keeps the port honest: if the recovered table or the
// seeding loop were wrong in any bit, the startup self-check and the
// golden cross-check tests would fail immediately.
//
// alfgPow makes seeding table-driven. The seeding LCG is pure Lehmer,
// x_{k+1} = a·x_k mod M, so its k-th value is a^k·s mod M for the
// normalised seed s. A seeding discards 20 values and then consumes
// three per window word, so word i needs steps 21+3i .. 23+3i:
// alfgPow[i][c] = a^(21+3i+c) mod M. Each word then costs three
// independent multiply-mods instead of a serial chain of 1,841
// dependent Schrage steps. Modular arithmetic has one answer, so the
// words are bit-identical to the stdlib loop's.
var (
	alfgCooked   [alfgLen]uint64
	alfgPow      [alfgLen][3]uint64
	alfgInitOnce sync.Once
)

// alfgSeedrand is one step of the stdlib seeding LCG (Schrage's
// decomposition of 48271·x mod 2^31−1); it only builds alfgPow.
func alfgSeedrand(x int32) int32 {
	hi := x / alfgSeedQ
	lo := x % alfgSeedQ
	x = alfgSeedA*lo - alfgSeedR*hi
	if x < 0 {
		x += alfgSeedM
	}
	return x
}

// alfgMulMod returns a·b mod 2^31−1 for a, b < 2^31: the product fits
// in 62 bits, and since 2^31 ≡ 1 the Mersenne fold (t & M) + (t >> 31)
// leaves a value below 2M, which one conditional subtract reduces.
func alfgMulMod(a, b uint64) uint64 {
	t := a * b
	r := t&alfgSeedM + t>>31
	if r >= alfgSeedM {
		r -= alfgSeedM
	}
	return r
}

// alfgSeedVec seeds a 607-word window exactly as rngSource.Seed does,
// returning the initial tap/feed phases.
func alfgSeedVec(vec []uint64, seed int64) (tap, feed int32) {
	alfgInit()
	alfgSeedWords(vec, seed, &alfgCooked)
	return 0, alfgLen - alfgTap
}

// alfgSeedWords is the seeding loop proper: it writes the LCG words
// for seed, XORed with mix, into out. mix is alfgCooked for a real
// seeding and all zeros when the recovery strips the LCG part.
// alfgPow must already be built (alfgInit does so first).
func alfgSeedWords(out []uint64, seed int64, mix *[alfgLen]uint64) {
	s := seed % alfgSeedM
	if s < 0 {
		s += alfgSeedM
	}
	if s == 0 {
		s = 89482311
	}
	x := uint64(s)
	out = out[:alfgLen]
	for i := range out {
		p := &alfgPow[i]
		out[i] = alfgMulMod(p[0], x)<<40 ^ alfgMulMod(p[1], x)<<20 ^ alfgMulMod(p[2], x) ^ mix[i]
	}
}

func alfgInit() { alfgInitOnce.Do(alfgRecoverCooked) }

func alfgRecoverCooked() {
	// The power table first: every seeding below runs through it.
	x := int32(1)
	for k := 1; k <= 20; k++ {
		x = alfgSeedrand(x)
	}
	for i := range alfgPow {
		for c := range alfgPow[i] {
			x = alfgSeedrand(x)
			alfgPow[i][c] = uint64(x)
		}
	}
	src := rand.NewSource(1).(rand.Source64)
	var outs [alfgLen]uint64
	for i := range outs {
		outs[i] = src.Uint64()
	}
	// Unwind the first 607 draws back to the fresh seed-1 vector v.
	// Draw k reads slots feed_k=(333-k) mod 607 and tap_k=(606-k) mod
	// 607 and overwrites feed_k with the output. The write cursor
	// reaches the tap window after exactly 273 draws, so draws 0..272
	// pair two untouched slots, while from draw 273 on the tap slot
	// already holds the output of draw k-273 — all linear in v.
	var v [alfgLen]uint64
	for k := 273; k <= 606; k++ {
		v[(940-k)%alfgLen] = outs[k] - outs[k-273]
	}
	for k := 0; k < 273; k++ {
		v[333-k] = outs[k] - v[606-k]
	}
	// v[i] = lcg_i XOR cooked[i]; strip the seed-1 LCG part.
	var lcg, zero [alfgLen]uint64
	alfgSeedWords(lcg[:], 1, &zero)
	for i := range v {
		alfgCooked[i] = v[i] ^ lcg[i]
	}
	// Self-check on an unrelated seed: any recovery or porting error
	// surfaces here at startup rather than as silent sequence drift.
	// 700 draws crosses the point (draw 273) where the recurrence first
	// consumes a slot recovered by back-substitution through a rewrite.
	var check [alfgLen]uint64
	alfgSeedWords(check[:], 0x5eed5eed, &alfgCooked)
	tap, feed := int32(0), int32(alfgLen-alfgTap)
	ref := rand.NewSource(0x5eed5eed).(rand.Source64)
	for i := 0; i < 700; i++ {
		tap--
		if tap < 0 {
			tap += alfgLen
		}
		feed--
		if feed < 0 {
			feed += alfgLen
		}
		x := check[feed] + check[tap]
		check[feed] = x
		if x != ref.Uint64() {
			panic(fmt.Sprintf("sim: alfg cooked-table recovery diverged from math/rand at draw %d", i))
		}
	}
}

// alfgSource is a lazily seeded rand.Source64 with arena-resident
// state. It is single-goroutine, like every generator. The zero value
// is not usable; initialize with init.
type alfgSource struct {
	state []uint64 // nil until first draw; len alfgLen = window, shorter = tape
	arena *Arena   // nil = standalone (self-allocating)
	seed  int64
	// pos is the feed index in window mode and the cursor in tape mode.
	pos    int32
	tap    int32 // window mode only
	budget int32 // requested draw budget; 0 = unbounded
	isVec  bool
}

func (s *alfgSource) init(seed int64, arena *Arena, budget int) {
	if budget < 0 || budget > 1<<30 {
		budget = 0
	}
	*s = alfgSource{seed: seed, arena: arena, budget: int32(budget)}
}

func (s *alfgSource) alloc(n int) []uint64 {
	if s.arena != nil {
		return s.arena.alloc(n)
	}
	return make([]uint64, n)
}

// tapeEntries returns the padded tape length for a budget, or 0 when a
// full window is the smaller (or only safe) representation.
func tapeEntries(budget int32) int {
	if budget <= 0 {
		return 0
	}
	n := int(budget) + int(budget)>>tapeSlackShift + tapeSlackMin
	if n >= alfgLen {
		return 0
	}
	return n
}

// materialize runs the seeding loop on first draw, into either a tape
// or a full window.
func (s *alfgSource) materialize() {
	if n := tapeEntries(s.budget); n > 0 {
		var scratch [alfgLen]uint64
		tap, feed := alfgSeedVec(scratch[:], s.seed)
		tape := s.alloc(n)
		for i := range tape {
			tap--
			if tap < 0 {
				tap += alfgLen
			}
			feed--
			if feed < 0 {
				feed += alfgLen
			}
			x := scratch[feed] + scratch[tap]
			scratch[feed] = x
			tape[i] = x
		}
		s.state, s.pos = tape, 0
		if s.arena != nil {
			s.arena.noteSeed(false)
		}
		return
	}
	s.state = s.alloc(alfgLen)
	s.tap, s.pos = alfgSeedVec(s.state, s.seed)
	s.isVec = true
	if s.arena != nil {
		s.arena.noteSeed(true)
	}
}

// spill upgrades an exhausted tape to a full window: reseed, replay
// the consumed prefix, continue. Correct for any budget misestimate;
// the arena counts spills so benchmarks can prove they stay rare.
func (s *alfgSource) spill() {
	consumed := int32(len(s.state))
	vec := s.alloc(alfgLen)
	tap, feed := alfgSeedVec(vec, s.seed)
	for i := int32(0); i < consumed; i++ {
		tap--
		if tap < 0 {
			tap += alfgLen
		}
		feed--
		if feed < 0 {
			feed += alfgLen
		}
		vec[feed] += vec[tap]
	}
	s.state, s.tap, s.pos, s.isVec = vec, tap, feed, true
	if s.arena != nil {
		s.arena.noteSpill()
	}
}

// Uint64 returns the next raw generator word — bit-identical to
// rand.NewSource(seed)'s word stream at the same position. The tape
// and seeding paths live in tapeUint64, off the window's hot path.
func (s *alfgSource) Uint64() uint64 {
	if s.isVec {
		tap, feed := s.tap-1, s.pos-1
		if tap < 0 {
			tap += alfgLen
		}
		if feed < 0 {
			feed += alfgLen
		}
		x := s.state[feed] + s.state[tap]
		s.state[feed] = x
		s.tap, s.pos = tap, feed
		return x
	}
	return s.tapeUint64()
}

// tapeUint64 is Uint64 for an unseeded source or a tape.
func (s *alfgSource) tapeUint64() uint64 {
	if int(s.pos) < len(s.state) {
		x := s.state[s.pos]
		s.pos++
		return x
	}
	if s.state == nil {
		s.materialize()
	} else {
		s.spill()
	}
	return s.Uint64()
}

// warm reads one word from every cache line that the next n raw words
// will read: the feed and tap regions of a window, the next stretch of
// a tape. An unseeded source has nothing to read and stays unseeded.
// It returns the fold of the words read, for the caller to keep so
// that the loads stay.
func (s *alfgSource) warm(n int) uint64 {
	if s.state == nil || n <= 0 {
		return 0
	}
	if !s.isVec {
		lo := int(s.pos)
		return touchLines(s.state, lo, min(lo+n, len(s.state)))
	}
	n = min(n, alfgLen)
	// Draws walk both cursors downwards from pos-1 and tap-1.
	return touchBelow(s.state, int(s.pos), n) ^ touchBelow(s.state, int(s.tap), n)
}

// touchBelow folds one word per cache line of the n window slots below
// index from, wrapping at the window's start.
func touchBelow(w []uint64, from, n int) uint64 {
	if from >= n {
		return touchLines(w, from-n, from)
	}
	return touchLines(w, 0, from) ^ touchLines(w, len(w)-(n-from), len(w))
}

// touchLines folds one word per 64-byte line of w[lo:hi]: consecutive
// reads eight words apart land on consecutive lines whatever the
// alignment, and the last word covers the final line.
func touchLines(w []uint64, lo, hi int) uint64 {
	if lo >= hi {
		return 0
	}
	var acc uint64
	for i := lo; i < hi; i += 8 {
		acc ^= w[i]
	}
	return acc ^ w[hi-1]
}

// Int63 implements rand.Source.
func (s *alfgSource) Int63() int64 { return int64(s.Uint64() & alfgMask) }

// Seed implements rand.Source: the source restarts from the new seed,
// dropping any materialized state (it reseeds lazily on next draw).
// Arena storage of the previous state is not reclaimed.
func (s *alfgSource) Seed(seed int64) {
	s.seed, s.state, s.isVec, s.pos, s.tap = seed, nil, false, 0, 0
}

// boxedRNG packs an RNG, its rand.Rand and its source into one
// allocation, so a derived stream costs one small header object plus
// its arena words — not the 3-object, ~5.4 KB heap constellation
// rand.New(rand.NewSource(seed)) builds.
type boxedRNG struct {
	g   RNG
	rr  rand.Rand
	src alfgSource
}

// newAlfgRNG returns an RNG over a lazily seeded ALFG source; a nil
// arena makes it standalone. Uniform and normal draws run on the
// source directly, the other distributions on a stdlib rand.Rand over
// it, so sequences cannot drift from the rand.NewSource path.
func newAlfgRNG(seed int64, arena *Arena, budget int) *RNG {
	b := new(boxedRNG)
	b.src.init(seed, arena, budget)
	// rand.New's result is copied by value into the box; rand.Rand
	// holds only the source interfaces and scalar read state, so the
	// copy is safe at construction time.
	b.rr = *rand.New(&b.src)
	b.g = RNG{b: b}
	return &b.g
}
