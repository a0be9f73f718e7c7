//go:build amd64 && !noasm

package dct

import (
	"lepton/internal/cpufeat"
)

// useAVX2 gates the assembly kernels; cpufeat is an imported package, so
// its CPUID probe runs before this initializer.
var useAVX2 = cpufeat.X86.HasAVX2

// InverseBorder computes the border samples of the AC-only inverse DCT;
// see inverseBorderGo for the full contract. On AVX2 hosts the assembly
// kernel wins at every block density — its row skipping keeps the
// near-empty case cheap while dense blocks amortize the vector width — so
// dispatch is unconditional (measured 2.0x at 1 nonzero, 3.5x at 8); it is
// bit-identical to the scalar path (differential-tested and fuzzed).
func InverseBorder(coef []int16, q *[64]uint16, dst *Block) {
	_ = coef[:64]
	if useAVX2 {
		inverseBorderAVX2(&coef[0], q, dst)
		return
	}
	inverseBorderGo(coef, q, dst)
}

// BorderGradient is the DC-gradient block kernel: the AC-only border
// inverse transform of coef (see InverseBorder), the sum, min and max of
// the gradient DC predictions against the neighbour edges sel selects
// (GradAbove: above[x] continues column x; GradLeft: left[y] continues row
// y; see Gradient.Extrapolate), and the block's own 32 AC-only edge
// samples. On AVX2 hosts one assembly body does all of it, bit-identical
// to borderGradientGo (differential-tested and fuzzed).
func BorderGradient(coef []int16, q *[64]uint16, above, left *[8]int32, sel int, g *Gradient) {
	_ = coef[:64]
	if useAVX2 {
		borderGradientAVX2(&coef[0], q, nil, above, left, sel&^gradBorderOnly, g)
		return
	}
	borderGradientGo(coef, q, above, left, sel, g)
}

// NonzeroMask returns the raster-order occupancy mask of 64 coefficients:
// bit i set iff coef[i] != 0 (bit 0 = DC).
func NonzeroMask(coef []int16) uint64 {
	_ = coef[:64]
	if useAVX2 {
		return nonzeroMask64AVX2(&coef[0])
	}
	return nonzeroMaskGo(coef)
}

// NonzeroMask32 is NonzeroMask over an int32 sample/coefficient block.
func NonzeroMask32(b *Block) uint64 {
	if useAVX2 {
		return nonzeroMask32AVX2(b)
	}
	return nonzeroMask32Go(b)
}

// Implemented in dct_amd64.s. The noescape promises keep caller blocks on
// their stacks: without them every &block passed in is forced to the heap,
// one allocation per coded block.
//
//go:noescape
func borderGradientAVX2(coef *int16, q *[64]uint16, dst *Block, above, left *[8]int32, sel int, grad *Gradient)

// inverseBorderAVX2 is the border-transform-only entry to the AVX2 body.
func inverseBorderAVX2(coef *int16, q *[64]uint16, dst *Block) {
	borderGradientAVX2(coef, q, dst, nil, nil, gradBorderOnly, nil)
}

//go:noescape
func nonzeroMask64AVX2(coef *int16) uint64

//go:noescape
func nonzeroMask32AVX2(b *Block) uint64
