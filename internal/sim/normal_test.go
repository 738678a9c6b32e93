package sim

import (
	"math"
	"math/rand"
	"testing"
)

// countingSource is a stdlib source that counts the raw words drawn
// and keeps the first word drawn after each mark.
type countingSource struct {
	src   rand.Source64
	n     int
	mark  bool
	first uint64
}

func (c *countingSource) Uint64() uint64 {
	x := c.src.Uint64()
	c.n++
	if c.mark {
		c.first, c.mark = x, false
	}
	return x
}
func (c *countingSource) Int63() int64 { return int64(c.Uint64() & alfgMask) }
func (c *countingSource) Seed(int64)   { panic("unused") }

// TestNormMatchesStdlibZiggurat pins the direct ziggurat to the
// stdlib's NormFloat64 over 10^6 draws for each of several seeds. A
// draw that takes more than one raw word left the fast path, and its
// first word tells which slow branch it entered: the tail strip
// (layer 0) or a wedge. Both must have been taken, or the comparison
// proved little about them.
func TestNormMatchesStdlibZiggurat(t *testing.T) {
	const draws = 1_000_000
	var tail, wedge int
	for _, seed := range []int64{1, -7, 0x7a3b_9f21_0c44_5e17} {
		var src alfgSource
		src.init(seed, nil, 0)
		ref := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
		rr := rand.New(ref)
		for i := 0; i < draws; i++ {
			before := ref.n
			ref.mark = true
			got, want := src.normFloat64(), rr.NormFloat64()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: draw %d = %v, stdlib %v", seed, i, got, want)
			}
			if ref.n == before+1 {
				continue
			}
			if j := int32(uint32(ref.first & alfgMask >> 31)); j&0x7F == 0 {
				tail++
			} else {
				wedge++
			}
		}
		// Both generators must also stand at the same raw word.
		if got, want := src.Uint64(), ref.src.Uint64(); got != want {
			t.Fatalf("seed %d: word after the draws = %#x, stdlib %#x", seed, got, want)
		}
	}
	t.Logf("slow draws: %d tail, %d wedge", tail, wedge)
	if tail == 0 || wedge == 0 {
		t.Fatalf("slow branches not both taken: tail %d, wedge %d", tail, wedge)
	}
}

// TestNewRNGMatchesStdlib pins every RNG method of a standalone
// stream against the same method written on rand.New(rand.NewSource).
func TestNewRNGMatchesStdlib(t *testing.T) {
	for _, seed := range crossSeeds {
		compareRNGs(t, "NewRNG", NewRNG(seed), newStdRNG(seed), 4000)
	}
}

// TestWarmChangesNothing warms windows, tapes, spilled tapes and
// unseeded streams at every cursor phase a test can reach cheaply and
// by every draw count from none to past the window: later draws must
// match an unwarmed twin, and the arena's accounting must not move
// (an unseeded stream stays unseeded).
func TestWarmChangesNothing(t *testing.T) {
	arena, twinArena := NewArena(), NewArena()
	as, twin := arena.Streams(8), twinArena.Streams(8)
	budgets := []int{0, 0, 100, 10, 300}
	var gs, ts []*RNG
	for i, b := range budgets {
		name := "warm." + string(rune('a'+i))
		gs, ts = append(gs, as.StreamBudget(name, b)), append(ts, twin.StreamBudget(name, b))
	}
	warmCounts := []int{-3, 0, 1, 7, 8, 9, 50, 606, 607, 608, 5000}
	for round := 0; round < 40; round++ {
		for i, g := range gs {
			if i == 1 && round < 20 {
				continue // an unseeded stream for the first half
			}
			before := arena.Stats()
			g.Warm(warmCounts[(round+i)%len(warmCounts)])
			if after := arena.Stats(); after != before {
				t.Fatalf("round %d stream %d: Warm moved the arena stats %+v -> %+v", round, i, before, after)
			}
			for k := 0; k < 3+round%17; k++ {
				if got, want := g.Norm(), ts[i].Norm(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("round %d stream %d: draw %d after Warm = %v, unwarmed %v", round, i, k, got, want)
				}
			}
		}
	}
	if st, tw := arena.Stats(), twinArena.Stats(); st != tw || st.Spills == 0 {
		t.Fatalf("stats %+v, unwarmed twin %+v (a spill is expected)", st, tw)
	}
}

// warmSink keeps the benchmark's warm reads live.
var warmSink uint64

// BenchmarkColdShadowDraws is the radio snapshot's generator access
// pattern at fleet scale: 4000 UEs × 30 arena-resident windows, 50
// draws per stream per UE-epoch, UEs stepped one after another, so
// every stream is cold when its UE comes round. "warmed" first reads
// each UE's next draws' cache lines (RNG.Warm), as the fleet epoch
// does; the draws are identical either way.
func BenchmarkColdShadowDraws(b *testing.B) {
	const ues, streamsPerUE, draws = 4000, 30, 50
	arena := NewArena()
	gs := make([]*RNG, 0, ues*streamsPerUE)
	for ue := 0; ue < ues; ue++ {
		as := arena.Streams(ReplicaSeed(1, ue))
		for s := 0; s < streamsPerUE; s++ {
			g := as.Stream("ran.shadow.cell." + string(rune('A'+s)))
			g.Float64() // seed the window
			gs = append(gs, g)
		}
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warmed"
		}
		b.Run(name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				for ue := 0; ue < ues; ue++ {
					mine := gs[ue*streamsPerUE : (ue+1)*streamsPerUE]
					if warm {
						for _, g := range mine {
							warmSink ^= g.Warm(draws + 8)
						}
					}
					for d := 0; d < draws; d++ {
						for _, g := range mine {
							sum += g.Gauss(0, 3.5)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ues*streamsPerUE*draws), "ns/draw")
			if math.IsNaN(sum) {
				b.Fatal("NaN draw")
			}
		})
	}
}
