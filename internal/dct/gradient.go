package dct

import "math"

// The DC-gradient block kernel.
//
// Lepton predicts a block's DC last, from pixels (paper A.2.3): the
// AC-only samples along the block's top and left borders are continued
// into the neighbours' extrapolated edges, and each of up to 16 border
// pairs votes for a DC. The same border transform also yields the block's
// own edge samples, which its lower and right neighbours vote against
// later. BorderGradient does all of that per-block pixel work in one
// call; Extrapolate finishes the edge cache once the DC is known.

// Gradient selectors for BorderGradient's sel argument.
const (
	GradAbove = 1 << iota // vote against the above neighbour's bottom edge
	GradLeft              // vote against the left neighbour's right edge
	// gradBorderOnly stops after the border transform; InverseBorder
	// shares the AVX2 body this way.
	gradBorderOnly
)

// Gradient is the per-block output of BorderGradient.
type Gradient struct {
	// Sum, Min and Max summarise the selected gradient predictions. With
	// no neighbour selected they are 0, math.MaxInt64 and math.MinInt64.
	Sum, Min, Max int64
	// Edge holds the block's AC-only border samples: row 6 (Edge[0:8]),
	// row 7 (Edge[8:16]), column 6 (Edge[16:24]) and column 7
	// (Edge[24:32]).
	Edge [32]int32
}

// half is a/2 rounded half away from zero without the divide.
func half(a int64) int64 {
	return (a + (a>>63 | 1)) / 2
}

// borderGradientGo is the portable BorderGradient; see the dispatch
// wrappers for the contract.
func borderGradientGo(coef []int16, q *[64]uint16, above, left *[8]int32, sel int, g *Gradient) {
	var px Block
	inverseBorderGo(coef, q, &px)
	g.Sum, g.Min, g.Max = 0, math.MaxInt64, math.MinInt64
	if sel&GradAbove != 0 {
		var r0, r1 [8]int64
		for x := 0; x < 8; x++ {
			r0[x], r1[x] = int64(px[x]), int64(px[8+x])
		}
		g.vote(above, &r0, &r1)
	}
	if sel&GradLeft != 0 {
		var c0, c1 [8]int64
		for y := 0; y < 8; y++ {
			c0[y], c1[y] = int64(px[y*8]), int64(px[y*8+1])
		}
		g.vote(left, &c0, &c1)
	}
	copy(g.Edge[0:16], px[48:64])
	for y := 0; y < 8; y++ {
		g.Edge[16+y] = px[y*8+6]
		g.Edge[24+y] = px[y*8+7]
	}
}

// vote folds in one neighbour's eight predictions: the neighbour's
// extrapolated edge minus this block's AC-only border continued outward,
// nb - c0 + (c1-c0)/2 — the DC offset that makes the two gradients meet.
func (g *Gradient) vote(nb *[8]int32, c0, c1 *[8]int64) {
	for i := 0; i < 8; i++ {
		p := int64(nb[i]) - c0[i] + half(c1[i]-c0[i])
		g.Sum += p
		g.Min = min(g.Min, p)
		g.Max = max(g.Max, p)
	}
}

// Extrapolate finishes a block's edge cache once its DC is known. shift is
// the DC's uniform per-sample offset; each border sample becomes
// sat16(AC-only sample + shift), and each pair across the border is
// continued one sample past it: e7 + (e7-e6)/2, rounded half away from
// zero. bottom[x] is what the block below votes against, right[y] what the
// block to the right votes against.
func (g *Gradient) Extrapolate(shift int32, bottom, right *[8]int32) {
	for i := 0; i < 8; i++ {
		b6, b7 := int64(sat16(g.Edge[i]+shift)), int64(sat16(g.Edge[8+i]+shift))
		r6, r7 := int64(sat16(g.Edge[16+i]+shift)), int64(sat16(g.Edge[24+i]+shift))
		bottom[i] = int32(b7 + half(b7-b6))
		right[i] = int32(r7 + half(r7-r6))
	}
}

func sat16(v int32) int16 {
	return int16(min(max(v, math.MinInt16), math.MaxInt16))
}
