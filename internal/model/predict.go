package model

import (
	"math/bits"

	"lepton/internal/dct"
)

// zigzag49 lists the zigzag-ordered raster positions of the 49 interior
// (u>=1, v>=1) coefficients — the "7x7" class of A.2.1.
var zigzag49 = func() [49]uint8 {
	var out [49]uint8
	n := 0
	for _, r := range dct.Zigzag {
		if r%8 != 0 && r/8 != 0 {
			out[n] = r
			n++
		}
	}
	return out
}()

// zeroBlock stands in for a neighbour outside the segment: with an empty
// nonzero mask it is never read by the sparse passes, and the dense
// avg77 reads it as zero magnitudes.
var zeroBlock [64]int16

// Every divide in the model rounds half away from zero, deterministically
// (paper §5.2: identical on every platform and build). Divisors are either
// compile-time constants or quantizer steps; the steps go through recip.

// abs64 returns |a| as an unsigned magnitude and the sign mask of a (0 or
// -1), so signed(m, s) restores the sign.
func abs64(a int64) (uint64, int64) {
	s := a >> 63
	return uint64((a ^ s) - s), s
}

func signed(m uint64, s int64) int64 { return (int64(m) ^ s) - s }

// divPow2 is a / 2^k rounded half away from zero.
func divPow2(a int64, k uint) int64 {
	m, s := abs64(a)
	return signed((m+1<<(k-1))>>k, s)
}

// basis00 is dct.Basis[0][0] as an untyped constant, so divBasis00
// strength-reduces to a multiply. TestBasis00Pinned keeps it honest
// against the table.
const basis00 = 2896

// divBasis00 is a / basis00 rounded half away from zero.
func divBasis00(a int64) int64 {
	m, s := abs64(a)
	return signed((m+basis00/2)/basis00, s)
}

// recip divides by one quantizer step d >= 1 (the JPEG parser rejects zero
// steps) without a hardware divide: m = ⌊(2^64−1)/d⌋ underestimates 2^64/d
// by less than one part in d, so the multiply-high quotient is the exact
// floor or one short of it, and one remainder test corrects it.
type recip struct {
	m, d uint64
}

func newRecip(d uint16) recip { return recip{m: ^uint64(0) / uint64(d), d: uint64(d)} }

// div is a / d rounded half away from zero, exact for |a| < 2^62 (the
// model's numerators stay below 2^50).
func (r recip) div(a int64) int64 {
	n, s := abs64(a)
	n += r.d >> 1
	qt, _ := bits.Mul64(n, r.m)
	if n-qt*r.d >= r.d {
		qt++
	}
	return signed(qt, s)
}

// quantRecips holds the reciprocals of the steps the predictors requantize
// by: [0][u] = q[u] along the top row ([0][0] is the DC step) and
// [1][v] = q[v*8] down the left column. Codec.run builds it once per
// component and segment.
type quantRecips [2][8]recip

func (r *quantRecips) build(q *[64]uint16) {
	for i := 0; i < 8; i++ {
		r[0][i] = newRecip(q[i])
		r[1][i] = newRecip(q[i*8])
	}
}

// avg77 computes the 7x7 neighborhood-magnitude context of A.2.1: the
// weighted average (13|A| + 13|L| + 6|AL|)/32 of the co-located coefficients
// in the above, left, and above-left blocks (zeroBlock when missing).
func avg77(above, left, aboveLeft *[64]int16, pos int) int32 {
	abs := func(v int16) int32 {
		s := int32(v) >> 31
		return (int32(v) ^ s) - s
	}
	return (13*abs(above[pos]) + 13*abs(left[pos]) + 6*abs(aboveLeft[pos])) >> 5
}

// avgContext fills b with the avg77 bucket of every interior raster
// position in m — the positions where some neighbour is nonzero. Every
// other position's average is zero, so its bucket stays 0.
func avgContext(b *[64]uint8, above, left, aboveLeft *[64]int16, m uint64) {
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		b[i] = uint8(ilog2(avg77(above, left, aboveLeft, i), avgBuckets))
	}
}

// The Lakhani edge predictor (A.2.2) assumes pixel continuity across the
// block edge shared with a neighbour. For the top row (orientation 0) and
// the left column (orientation 1) it predicts
//
//	F̄[0,u] = (Σ_v B[v][7]·A[v,u] − Σ_{v≥1} B[v][0]·F[v,u]) / B[0][0]
//	F̄[v,0] = (Σ_u B[u][7]·L[v,u] − Σ_{u≥1} B[u][0]·F[v,u]) / B[0][0]
//
// over dequantized coefficients of the above block A, the left block L and
// the current block's 7x7 interior F, then requantizes to the predicted
// coefficient's step. Every term is a product with one coefficient, so the
// numerators accumulate sparsely over nonzero masks.

// edgeInterior subtracts the current block's 7x7 terms from both
// orientations' numerators in one pass over its interior nonzeros m.
func edgeInterior(cur *[64]int16, q *[64]uint16, m uint64, acc *[2][8]int64) {
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		v, u := i>>3, i&7
		d := int64(cur[i]) * int64(q[i])
		acc[0][u] -= int64(dct.Basis[v][0]) * d
		acc[1][v] -= int64(dct.Basis[u][0]) * d
	}
}

// edgeAbove adds the above block's terms (nonzeros m) to the top-row
// numerators.
func edgeAbove(above *[64]int16, q *[64]uint16, m uint64, acc *[8]int64) {
	for m &^= column0; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		acc[i&7] += int64(dct.Basis[i>>3][7]) * int64(above[i]) * int64(q[i])
	}
}

// edgeLeft adds the left block's terms (nonzeros m) to the left-column
// numerators.
func edgeLeft(left *[64]int16, q *[64]uint16, m uint64, acc *[8]int64) {
	for m &^= row0; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		acc[i>>3] += int64(dct.Basis[i&7][7]) * int64(left[i]) * int64(q[i])
	}
}

// edgePrediction finishes one Lakhani numerator: divide out B[0][0] (the
// basis scale cancels), requantize by the coefficient's step, clamp.
func edgePrediction(acc int64, r recip) int32 {
	return clampCoef(r.div(divBasis00(acc)))
}

func clampCoef(v int64) int32 {
	return int32(min(max(v, -2048), 2047))
}

// blockEdges is a block's extrapolated edge cache for DC prediction (see
// dct.Gradient.Extrapolate): bottom[x] continues column x into the block
// below, right[y] continues row y into the block to the right.
type blockEdges struct {
	bottom, right [8]int32
}

// zeroEdges is passed for an unselected left neighbour.
var zeroEdges blockEdges

// dcPixelShift is the uniform per-sample contribution of the quantized DC
// coefficient: the orthonormal basis gives each sample dc*q0/8.
func dcPixelShift(dc int32, q *[64]uint16) int32 {
	return int32(divPow2(int64(dc)*int64(q[0]), 3))
}

// gradientDC implements A.2.3 from the block kernel's summary of its n
// (8 or 16) gradient predictions: their mean is the predicted DC offset in
// pixels, requantized by the DC step r; their spread sets the confidence
// bucket.
func gradientDC(g *dct.Gradient, n int, r recip) (pred int32, conf int) {
	var avgPix int64
	if n == 16 {
		avgPix = divPow2(g.Sum, 4)
	} else {
		avgPix = divPow2(g.Sum, 3)
	}
	// A DC step of 1 shifts every sample by q0/8 (orthonormal basis), so
	// the quantized DC is avgPix*8/q0.
	spread := r.div((g.Max - g.Min) * 8)
	return clampCoef(r.div(avgPix * 8)), ilog2(int32(min(spread, 1<<20)), confBuckets)
}
