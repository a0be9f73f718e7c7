package dct

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// randCoef fills a 64-coefficient block with n nonzeros at random raster
// positions, values spanning the full int16 range.
func randCoef(rng *rand.Rand, n int) []int16 {
	coef := make([]int16, 64)
	for i := 0; i < n; i++ {
		coef[rng.Intn(64)] = int16(rng.Intn(1<<16) - 1<<15)
	}
	return coef
}

func randQuant(rng *rand.Rand) *[64]uint16 {
	var q [64]uint16
	for i := range q {
		q[i] = uint16(rng.Intn(1 << 16))
	}
	return &q
}

// TestInverseBorderParity drives the dispatched InverseBorder against the
// portable implementation across the sparsity spectrum, including the
// extreme magnitudes where intermediate sums need all of int64 and the
// int32 conversion wraps.
func TestInverseBorderParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 5000; iter++ {
		coef := randCoef(rng, iter%65)
		q := randQuant(rng)
		var got, want Block
		InverseBorder(coef, q, &got)
		inverseBorderGo(coef, q, &want)
		if got != want {
			t.Fatalf("iter %d: InverseBorder diverges from portable path\ncoef=%v\nq=%v\ngot=%v\nwant=%v", iter, coef, q, got, want)
		}
	}
}

// randEdges fills a neighbour extrapolation with values spanning int32.
func randEdges(rng *rand.Rand) *[8]int32 {
	var e [8]int32
	for i := range e {
		switch rng.Intn(3) {
		case 0:
			e[i] = int32(rng.Intn(1<<17) - 1<<16) // the codec's range
		default:
			e[i] = int32(rng.Uint32())
		}
	}
	return &e
}

// TestBorderGradientParity drives the dispatched BorderGradient against
// its pure-Go twin over every neighbour selection and the full int16 and
// uint16 ranges, where the border samples wrap int32 and the predictions
// need all of int64.
func TestBorderGradientParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 5000; iter++ {
		coef := randCoef(rng, iter%65)
		q := randQuant(rng)
		above, left := randEdges(rng), randEdges(rng)
		sel := iter % 4
		var got, want Gradient
		BorderGradient(coef, q, above, left, sel, &got)
		borderGradientGo(coef, q, above, left, sel, &want)
		if got != want {
			t.Fatalf("iter %d sel %d: BorderGradient diverges from portable path\ncoef=%v\nq=%v\ngot=%+v\nwant=%+v", iter, sel, coef, q, got, want)
		}
	}
}

// TestBorderGradientMatchesInverseBorder pins the twin to the border
// transform it is built on: the edge samples are InverseBorder's rows 6, 7
// and columns 6, 7.
func TestBorderGradientMatchesInverseBorder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 1000; iter++ {
		coef := randCoef(rng, iter%65)
		q := randQuant(rng)
		var px Block
		InverseBorder(coef, q, &px)
		var g Gradient
		BorderGradient(coef, q, randEdges(rng), randEdges(rng), 0, &g)
		for i := 0; i < 8; i++ {
			if g.Edge[i] != px[48+i] || g.Edge[8+i] != px[56+i] || g.Edge[16+i] != px[i*8+6] || g.Edge[24+i] != px[i*8+7] {
				t.Fatalf("iter %d: edge samples differ from InverseBorder at %d", iter, i)
			}
		}
		if g.Sum != 0 || g.Min != math.MaxInt64 || g.Max != math.MinInt64 {
			t.Fatalf("iter %d: no neighbour selected, got sum/min/max %d/%d/%d", iter, g.Sum, g.Min, g.Max)
		}
	}
}

func TestNonzeroMaskParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 5000; iter++ {
		coef := randCoef(rng, iter%65)
		if got, want := NonzeroMask(coef), nonzeroMaskGo(coef); got != want {
			t.Fatalf("iter %d: NonzeroMask=%#x, portable=%#x, coef=%v", iter, got, want, coef)
		}
	}
}

func TestNonzeroMask32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 5000; iter++ {
		var b Block
		for i := 0; i < iter%65; i++ {
			b[rng.Intn(64)] = rng.Int31() - 1<<30
		}
		if got, want := NonzeroMask32(&b), nonzeroMask32Go(&b); got != want {
			t.Fatalf("iter %d: NonzeroMask32=%#x, portable=%#x, block=%v", iter, got, want, b)
		}
	}
}

func TestZigzagMask(t *testing.T) {
	for z := 0; z < 64; z++ {
		if got := ZigzagMask(1 << Zigzag[z]); got != 1<<uint(z) {
			t.Fatalf("ZigzagMask(1<<Zigzag[%d]) = %#x, want %#x", z, got, 1<<uint(z))
		}
	}
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 1000; iter++ {
		raster := rng.Uint64()
		var want uint64
		for z := 0; z < 64; z++ {
			if raster&(1<<Zigzag[z]) != 0 {
				want |= 1 << uint(z)
			}
		}
		if got := ZigzagMask(raster); got != want {
			t.Fatalf("ZigzagMask(%#x) = %#x, want %#x", raster, got, want)
		}
	}
}

// FuzzKernelParity cross-checks every SIMD kernel in this package against
// its pure-Go twin on fuzzer-chosen blocks and quantization tables. On
// builds without the kernels the dispatch wrappers are the portable code
// and the comparison is trivially green — the target still runs, so a CI
// matrix with and without asm exercises both sides.
func FuzzKernelParity(f *testing.F) {
	f.Add(make([]byte, 256), uint8(0))
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, uint8(255))
	extreme := make([]byte, 320)
	for i := range extreme {
		extreme[i] = 0xFF ^ byte(i&1)<<7 // int16 extremes, q near 65535, int32 edges
	}
	f.Add(extreme, uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, salt uint8) {
		if len(raw) < 256 {
			return
		}
		var above, left [8]int32
		for i := 0; i < 8 && 256+8*i+8 <= len(raw); i++ {
			above[i] = int32(binary.LittleEndian.Uint32(raw[256+8*i:]))
			left[i] = int32(binary.LittleEndian.Uint32(raw[260+8*i:]))
		}
		coef := make([]int16, 64)
		var q [64]uint16
		var b32 Block
		for i := 0; i < 64; i++ {
			coef[i] = int16(raw[2*i]) | int16(raw[2*i+1])<<8
			q[i] = uint16(raw[128+i]) | uint16(salt)<<8
			b32[i] = int32(coef[i]) * int32(q[i])
		}
		var got, want Block
		InverseBorder(coef, &q, &got)
		inverseBorderGo(coef, &q, &want)
		if got != want {
			t.Fatalf("InverseBorder diverges from portable path\ncoef=%v\nq=%v", coef, q)
		}
		for sel := 0; sel < 4; sel++ {
			var got, want Gradient
			BorderGradient(coef, &q, &above, &left, sel, &got)
			borderGradientGo(coef, &q, &above, &left, sel, &want)
			if got != want {
				t.Fatalf("BorderGradient sel %d diverges from portable path\ncoef=%v\nq=%v\nabove=%v left=%v", sel, coef, q, above, left)
			}
		}
		if g, w := NonzeroMask(coef), nonzeroMaskGo(coef); g != w {
			t.Fatalf("NonzeroMask=%#x portable=%#x coef=%v", g, w, coef)
		}
		if g, w := NonzeroMask32(&b32), nonzeroMask32Go(&b32); g != w {
			t.Fatalf("NonzeroMask32=%#x portable=%#x block=%v", g, w, b32)
		}
	})
}

// BenchmarkInverseBorder measures the dispatched border-IDCT path (AVX2 on
// capable amd64 hosts, pure Go otherwise); it is untagged so the noasm CI
// bench-smoke exercises the fallback kernel.
func BenchmarkInverseBorder(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	q := ScaleQuant(&StdLuminanceQuant, 75)
	for _, n := range []int{2, 8, 32} {
		coef := randCoef(rng, n)
		b.Run(string(rune('0'+n/10))+string(rune('0'+n%10))+"nz", func(b *testing.B) {
			var dst Block
			for i := 0; i < b.N; i++ {
				InverseBorder(coef, &q, &dst)
			}
		})
	}
}
