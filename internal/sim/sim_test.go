package sim

import (
	"fmt"
	"math"
	"testing"
)

func TestStreamsDeterministicAndIndependent(t *testing.T) {
	s := NewStreams(42)
	a1 := s.Stream("alpha")
	a2 := s.Stream("alpha")
	b := s.Stream("beta")
	for i := 0; i < 100; i++ {
		if a1.Float64() != a2.Float64() {
			t.Fatal("same-name streams diverge")
		}
	}
	// Different names should produce different sequences (overwhelmingly).
	a3 := s.Stream("alpha")
	same := 0
	for i := 0; i < 100; i++ {
		if a3.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("streams alpha and beta nearly identical (%d/100 equal)", same)
	}
}

func TestRNGComplexNormVariance(t *testing.T) {
	g := NewRNG(7)
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		c := g.ComplexNorm(2.0)
		sum += real(c)*real(c) + imag(c)*imag(c)
	}
	mean := sum / n
	if math.Abs(mean-2.0) > 0.1 {
		t.Fatalf("ComplexNorm variance = %g, want ≈2", mean)
	}
}

func TestRNGRayleighMean(t *testing.T) {
	g := NewRNG(8)
	const n = 20000
	sigma := 1.5
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Rayleigh(sigma)
	}
	want := sigma * math.Sqrt(math.Pi/2)
	if math.Abs(sum/n-want) > 0.05 {
		t.Fatalf("Rayleigh mean = %g, want ≈%g", sum/n, want)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	g := NewRNG(9)
	const n = 20000
	hit := 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hit++
		}
	}
	p := float64(hit) / n
	if math.Abs(p-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency = %g", p)
	}
}

func TestRNGBasicDistributions(t *testing.T) {
	g := NewRNG(11)
	// Intn bounds.
	for i := 0; i < 1000; i++ {
		if v := g.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	// Uniform bounds and mean.
	var sum float64
	for i := 0; i < 10000; i++ {
		v := g.Uniform(2, 6)
		if v < 2 || v >= 6 {
			t.Fatalf("Uniform out of range: %g", v)
		}
		sum += v
	}
	if m := sum / 10000; math.Abs(m-4) > 0.1 {
		t.Fatalf("Uniform mean %g", m)
	}
	// Gauss mean/std.
	var gs []float64
	for i := 0; i < 20000; i++ {
		gs = append(gs, g.Gauss(5, 2))
	}
	var mean float64
	for _, v := range gs {
		mean += v
	}
	mean /= float64(len(gs))
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("Gauss mean %g", mean)
	}
	// Exp mean.
	sum = 0
	for i := 0; i < 20000; i++ {
		sum += g.Exp(3)
	}
	if m := sum / 20000; math.Abs(m-3) > 0.15 {
		t.Fatalf("Exp mean %g", m)
	}
	// Norm is standard normal.
	sum = 0
	for i := 0; i < 20000; i++ {
		sum += g.Norm()
	}
	if m := sum / 20000; math.Abs(m) > 0.05 {
		t.Fatalf("Norm mean %g", m)
	}
	// Perm is a permutation.
	p := g.Perm(10)
	seen := map[int]bool{}
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
	// Seed accessor.
	if NewStreams(123).Seed() != 123 {
		t.Fatal("Seed accessor wrong")
	}
}

// TestReplicaSeedSchedule pins the replica/UE seed-derivation schedule
// shared by remsim -replicas and the fleet engine. The golden values
// guard against silent changes: recorded fleet summaries and replica
// outputs are only reproducible while this schedule holds.
func TestReplicaSeedSchedule(t *testing.T) {
	golden := map[int]int64{
		0:   -1874779652746144000,
		1:   -1874780752257772209,
		7:   -1874778553234515787,
		999: -7235189280456433139,
	}
	for i, want := range golden {
		if got := ReplicaSeed(1, i); got != want {
			t.Errorf("ReplicaSeed(1, %d) = %d, want %d", i, got, want)
		}
	}
	if got := ReplicaSeed(42, 3); got != int64(-1874782951281028670) {
		t.Errorf("ReplicaSeed(42, 3) = %d", got)
	}

	// Distinctness across a wide index range and nearby masters: the
	// hash-derived schedule must not collide the way seed+7919*i could
	// (master 1 replica 1 vs master 7920 replica 0).
	seen := map[int64]string{}
	for master := int64(1); master <= 4; master++ {
		for i := 0; i < 2000; i++ {
			s := ReplicaSeed(master, i)
			key := fmt.Sprintf("m%d i%d", master, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
