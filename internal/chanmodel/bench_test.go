package chanmodel

import (
	"testing"

	"rem/internal/dsp"
	"rem/internal/ofdm"
	"rem/internal/sim"
)

func benchChannel() *Channel {
	return &Channel{Paths: []Path{
		{Gain: 0.9, Delay: 260e-9, Doppler: 595},
		{Gain: 0.3i, Delay: 700e-9, Doppler: -310},
		{Gain: 0.2 + 0.1i, Delay: 1090e-9, Doppler: 120},
	}}
}

// lteEVAChannel is a fixed EVA draw at 2.6 GHz and 350 km/h, the
// channel the innermost PHY kernel is timed on over the 72×14 LTE grid.
func lteEVAChannel() *Channel {
	return Generate(sim.NewRNG(11), GenConfig{
		Profile: EVA, CarrierHz: 2.6e9, SpeedMS: 97.2, Normalize: true,
	})
}

// BenchmarkTFResponse measures the per-draw cost of sampling the
// time-frequency grid on the cross-band estimator's 128×64 grid — the
// dominant allocation in the eval draw loops before buffer reuse — and
// on the 72×14 LTE grid the link abstraction reads.
func BenchmarkTFResponse(b *testing.B) {
	ch := benchChannel()
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ch.TFResponse(128, 64, 60e3, 1.0/60e3, 0)
		}
	})
	b.Run("into", func(b *testing.B) {
		dst := dsp.NewGrid(128, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch.TFResponseInto(dst, 60e3, 1.0/60e3, 0)
		}
	})
	b.Run("lte_eva", func(b *testing.B) {
		lte := ofdm.LTE()
		eva := lteEVAChannel()
		dst := dsp.NewGrid(72, 14)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eva.TFResponseInto(dst, lte.DeltaF, lte.SymbolT, 0)
		}
	})
}

// TestTFResponseIntoZeroAlloc pins the buffer-reuse contract: sampling
// into a caller-owned grid allocates nothing.
func TestTFResponseIntoZeroAlloc(t *testing.T) {
	lte := ofdm.LTE()
	ch := lteEVAChannel()
	dst := dsp.NewGrid(72, 14)
	allocs := testing.AllocsPerRun(100, func() {
		ch.TFResponseInto(dst, lte.DeltaF, lte.SymbolT, 0)
	})
	if allocs != 0 {
		t.Fatalf("TFResponseInto allocates %.1f per call, want 0", allocs)
	}
}

func BenchmarkDDResponse(b *testing.B) {
	ch := benchChannel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ch.DDResponse(128, 64, 60e3, 1.0/60e3, 0)
	}
}
