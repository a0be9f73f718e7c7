package model

import "lepton/internal/dct"

// Scalar references for the block kernels. These are the per-coefficient
// predictors the codec used before its context work was batched; the
// differential tests hold the batched, divide-free code to them bit for
// bit.

// div rounds half away from zero, deterministically (paper §5.2: identical
// on every platform and build).
func div(a, b int64) int64 {
	if b < 0 {
		a, b = -a, -b
	}
	if a >= 0 {
		return (a + b/2) / b
	}
	return -((-a + b/2) / b)
}

// refAvg77 is the nil-checked 7x7 neighborhood-magnitude context of A.2.1:
// (13|A| + 13|L| + 6|AL|)/32, a nil block standing for a missing neighbour.
func refAvg77(above, left, aboveLeft []int16, pos uint8) int32 {
	var acc int64
	for _, nb := range []struct {
		b []int16
		w int64
	}{{above, 13}, {left, 13}, {aboveLeft, 6}} {
		if nb.b != nil {
			a := int64(nb.b[pos])
			if a < 0 {
				a = -a
			}
			acc += nb.w * a
		}
	}
	return int32(acc >> 5)
}

// lakhaniCol predicts the left-column coefficient F[v*8+0] (the "1x7" class)
// from the left block's full coefficients and the current block's already
// known 7x7 coefficients, assuming pixel continuity across the vertical
// block edge (A.2.2):
//
//	F̄[v,0] = (Σ_u B[u][7]·L[v,u] − Σ_{u≥1} B[u][0]·F[v,u]) / B[0][0]
//
// All inputs are quantized coefficients; the arithmetic runs dequantized and
// the result is re-quantized to the coefficient's step.
func lakhaniCol(left, cur []int16, q *[64]uint16, v int) int32 {
	var acc int64
	for u := 0; u < 8; u++ {
		acc += int64(dct.Basis[u][7]) * int64(left[v*8+u]) * int64(q[v*8+u])
	}
	for u := 1; u < 8; u++ {
		acc -= int64(dct.Basis[u][0]) * int64(cur[v*8+u]) * int64(q[v*8+u])
	}
	pred := div(acc, int64(dct.Basis[0][0]))
	return clampCoef(div(pred, int64(q[v*8])))
}

// lakhaniRow predicts the top-row coefficient F[0*8+u] (the "7x1" class)
// from the above block, symmetric to lakhaniCol.
func lakhaniRow(above, cur []int16, q *[64]uint16, u int) int32 {
	var acc int64
	for v := 0; v < 8; v++ {
		acc += int64(dct.Basis[v][7]) * int64(above[v*8+u]) * int64(q[v*8+u])
	}
	for v := 1; v < 8; v++ {
		acc -= int64(dct.Basis[v][0]) * int64(cur[v*8+u]) * int64(q[v*8+u])
	}
	pred := div(acc, int64(dct.Basis[0][0]))
	return clampCoef(div(pred, int64(q[u])))
}

// refEdges is the 16-sample boundary cache the scalar DC predictor read:
// the bottom two pixel rows and right two pixel columns of the fully
// decoded (AC+DC, dequantized) block, saturated to int16.
type refEdges struct {
	bottom [16]int16 // rows 6 and 7: [x] and [8+x]
	right  [16]int16 // cols 6 and 7: [y] and [8+y]
}

// edgesFromPixels fills the edge cache from the AC-only pixels plus the DC
// shift.
func edgesFromPixels(px *dct.Block, dc int32, q *[64]uint16, e *refEdges) {
	shift := int32(div(int64(dc)*int64(q[0]), 8))
	for x := 0; x < 8; x++ {
		e.bottom[x] = refSat16(px[6*8+x] + shift)
		e.bottom[8+x] = refSat16(px[7*8+x] + shift)
	}
	for y := 0; y < 8; y++ {
		e.right[y] = refSat16(px[y*8+6] + shift)
		e.right[8+y] = refSat16(px[y*8+7] + shift)
	}
}

// computeEdges is the uncached path: full block to edge samples.
func computeEdges(coef []int16, q *[64]uint16, e *refEdges) {
	var px dct.Block
	dct.InverseBorder(coef, q, &px)
	edgesFromPixels(&px, int32(coef[0]), q, e)
}

func refSat16(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// dcPrediction implements A.2.3 from the AC-only border pixels px: linearly
// extrapolate gradients from the above and left neighbours' last two pixel
// rows/columns, and solve for the DC value that makes the gradients meet at
// each of up to 16 border pairs. Returns the predicted quantized DC and a
// confidence bucket (log of the prediction spread). With neither neighbour
// it falls back to prevDC.
func dcPrediction(px *dct.Block, q *[64]uint16, above, left *refEdges, prevDC int32) (pred int32, conf int) {
	if above == nil && left == nil {
		return prevDC, confBuckets - 1
	}
	var preds []int64
	if above != nil {
		for x := 0; x < 8; x++ {
			a6, a7 := int64(above.bottom[x]), int64(above.bottom[8+x])
			c0, c1 := int64(px[x]), int64(px[8+x])
			preds = append(preds, a7+div(a7-a6, 2)-c0+div(c1-c0, 2))
		}
	}
	if left != nil {
		for y := 0; y < 8; y++ {
			l6, l7 := int64(left.right[y]), int64(left.right[8+y])
			c0, c1 := int64(px[y*8]), int64(px[y*8+1])
			preds = append(preds, l7+div(l7-l6, 2)-c0+div(c1-c0, 2))
		}
	}
	sum, minP, maxP := int64(0), preds[0], preds[0]
	for _, p := range preds {
		sum += p
		if p < minP {
			minP = p
		}
		if p > maxP {
			maxP = p
		}
	}
	avgPix := div(sum, int64(len(preds)))
	predDC := clampCoef(div(avgPix*8, int64(q[0])))
	spread := div((maxP-minP)*8, int64(q[0]))
	if spread > 1<<20 {
		spread = 1 << 20
	}
	l := 0
	for s := spread; s != 0; s >>= 1 {
		l++
	}
	return predDC, min(l, confBuckets-1)
}
