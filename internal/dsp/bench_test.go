package dsp

import (
	"fmt"
	"testing"
)

// BenchmarkFFT covers the transform sizes the evaluation stack actually
// hits: 64 (estimator columns), 600 (a 10 MHz LTE grid's subcarrier
// axis, non-power-of-two → Bluestein), 1024 and 2048 (radix-2).
func BenchmarkFFT(b *testing.B) {
	for _, n := range []int{64, 600, 1024, 2048} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = FFT(x)
			}
		})
	}
}

func BenchmarkIFFT(b *testing.B) {
	for _, n := range []int{600, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = IFFT(x)
			}
		})
	}
}

func BenchmarkSFFT(b *testing.B) {
	g := NewGrid(64, 32)
	for i := 0; i < g.M; i++ {
		row := g.Row(i)
		for j := range row {
			row[j] = complex(float64(i-j), float64(i+j))
		}
	}
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = SFFT(g)
		}
	})
	b.Run("into", func(b *testing.B) {
		dst := NewGrid(64, 32)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			SFFTInto(dst, g)
		}
	})
}

// BenchmarkSVD128x64 factors the 128×64 complex matrix shape that
// cross-band estimation decomposes.
func BenchmarkSVD128x64(b *testing.B) {
	a := NewMatrix(128, 64)
	for i := range a.Data {
		a.Data[i] = complex(float64(i%13)-6, float64(i%7)-3+float64(i%97)/50)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ComputeSVD(a)
	}
}
