//go:build !amd64 || noasm

package dct

// InverseBorder computes the border samples of the AC-only inverse DCT;
// see inverseBorderGo for the full contract. This build has no assembly
// kernels, so it is the scalar path directly.
func InverseBorder(coef []int16, q *[64]uint16, dst *Block) {
	inverseBorderGo(coef, q, dst)
}

// BorderGradient is the DC-gradient block kernel: the AC-only border
// inverse transform of coef (see InverseBorder), the sum, min and max of
// the gradient DC predictions against the neighbour edges sel selects
// (GradAbove: above[x] continues column x; GradLeft: left[y] continues row
// y; see Gradient.Extrapolate), and the block's own 32 AC-only edge
// samples. This build has no assembly kernels, so it is the scalar path
// directly.
func BorderGradient(coef []int16, q *[64]uint16, above, left *[8]int32, sel int, g *Gradient) {
	borderGradientGo(coef, q, above, left, sel, g)
}

// NonzeroMask returns the raster-order occupancy mask of 64 coefficients:
// bit i set iff coef[i] != 0 (bit 0 = DC).
func NonzeroMask(coef []int16) uint64 { return nonzeroMaskGo(coef) }

// NonzeroMask32 is NonzeroMask over an int32 sample/coefficient block.
func NonzeroMask32(b *Block) uint64 { return nonzeroMask32Go(b) }
