package model

import (
	"math"
	"math/rand"
	"testing"

	"lepton/internal/dct"
)

// TestRecipMatchesDiv pins the reciprocal divide against the scalar div at
// its rounding boundaries: numerators k·d ± d/2 (and one either side),
// both signs, the largest numerator the contract covers, and every
// quantizer step class from 1 to 65535.
func TestRecipMatchesDiv(t *testing.T) {
	steps := []int64{1, 2, 3, 5, 7, 8, 16, 99, 255, 256, 257, 1023, 4095, 32767, 32768, 32769, 65534, 65535}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		steps = append(steps, 1+rng.Int63n(65535))
	}
	const maxNum = 1<<62 - 1
	for _, d := range steps {
		r := newRecip(uint16(d))
		ks := []int64{0, 1, 2, 3, 7, 2048, 1 << 20, 1 << 36, maxNum / d / 2, maxNum/d - 1}
		for i := 0; i < 16; i++ {
			ks = append(ks, rng.Int63n(maxNum/d))
		}
		for _, k := range ks {
			for _, base := range []int64{k * d, k*d - d/2, k*d + d/2, k*d + (d-1)/2} {
				for delta := int64(-1); delta <= 1; delta++ {
					a := base + delta
					if a > maxNum || a < -maxNum {
						continue
					}
					for _, n := range []int64{a, -a} {
						if got, want := r.div(n), div(n, d); got != want {
							t.Fatalf("recip(%d).div(%d) = %d, div = %d", d, n, got, want)
						}
					}
				}
			}
		}
		for _, n := range []int64{maxNum, -maxNum, maxNum - d/2, -(maxNum - d/2)} {
			if got, want := r.div(n), div(n, d); got != want {
				t.Fatalf("recip(%d).div(%d) = %d, div = %d", d, n, got, want)
			}
		}
	}
}

// TestConstantDividesMatchDiv pins the constant-divisor helpers the same
// way.
func TestConstantDividesMatchDiv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nums := []int64{0, 1, -1, 3, -3, 4, -4, 5, -5, 7, -7, 8, -8, 1447, 1448, 1449, -1448, -1449, 2896 * 5, 2896*5 + 1448, -(2896*5 + 1448), 1 << 50, -(1 << 50)}
	for i := 0; i < 10000; i++ {
		nums = append(nums, rng.Int63n(1<<51)-1<<50)
	}
	for _, a := range nums {
		if got, want := divBasis00(a), div(a, basis00); got != want {
			t.Fatalf("divBasis00(%d) = %d, want %d", a, got, want)
		}
		for k := uint(1); k <= 4; k++ {
			if got, want := divPow2(a, k), div(a, 1<<k); got != want {
				t.Fatalf("divPow2(%d, %d) = %d, want %d", a, k, got, want)
			}
		}
	}
}

// blockCtxInput is one FuzzBlockContext case decoded from fuzz bytes.
type blockCtxInput struct {
	q                           [64]uint16
	cur, above, left, aboveLeft [64]int16
	hasAbove, hasLeft           bool
	prevDC                      int32
}

// byteSource hands out fuzz bytes, then zeros once they run out.
type byteSource []byte

func (b *byteSource) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *byteSource) u16() uint16 { return uint16(b.next())<<8 | uint16(b.next()) }

// decodeBlockCtx maps fuzz bytes onto a block and its neighbours: AC
// coefficients in ±1023 and DCs in ±2047, each present with its own bit;
// 8-bit (1..255) or 16-bit (1..65535) quantizer steps.
func decodeBlockCtx(raw []byte) *blockCtxInput {
	src := byteSource(raw)
	in := &blockCtxInput{}
	mode := src.next()
	in.hasAbove, in.hasLeft = mode&1 != 0, mode&2 != 0
	for i := range in.q {
		v := uint16(src.next())
		if mode&4 != 0 {
			v = v<<8 | uint16(src.next())
		}
		in.q[i] = max(v, 1)
	}
	for _, blk := range []*[64]int16{&in.cur, &in.above, &in.left, &in.aboveLeft} {
		for i := range blk {
			r := src.u16()
			if r&1 == 0 {
				continue
			}
			lim := int16(1024)
			if i == 0 {
				lim = 2048
			}
			blk[i] = int16(r>>1) % lim
			if r&2 != 0 {
				blk[i] = -blk[i]
			}
		}
	}
	in.prevDC = int32(int16(src.u16()) % 2048)
	return in
}

// newEdges builds a neighbour's edge cache through the block kernel, as
// codeBlock does once the neighbour's DC is known.
func newEdges(blk *[64]int16, q *[64]uint16) blockEdges {
	var g dct.Gradient
	var e blockEdges
	dct.BorderGradient(blk[:], q, &zeroEdges.bottom, &zeroEdges.right, 0, &g)
	g.Extrapolate(dcPixelShift(int32(blk[0]), q), &e.bottom, &e.right)
	return e
}

// checkBlockContext compares every batched context result for one block
// against the scalar references.
func checkBlockContext(t *testing.T, in *blockCtxInput) {
	t.Helper()
	q := &in.q
	var recips quantRecips
	recips.build(q)
	above, left, aboveLeft := &zeroBlock, &zeroBlock, &zeroBlock
	var refA, refL, refAL []int16
	if in.hasAbove {
		above, refA = &in.above, in.above[:]
		if in.hasLeft {
			aboveLeft, refAL = &in.aboveLeft, in.aboveLeft[:]
		}
	}
	if in.hasLeft {
		left, refL = &in.left, in.left[:]
	}
	acMask := func(b *[64]int16) uint64 { return dct.NonzeroMask(b[:]) &^ 1 }

	// 7x7 buckets.
	var avgB [64]uint8
	avgContext(&avgB, above, left, aboveLeft, (acMask(above)|acMask(left)|acMask(aboveLeft))&mask49)
	for _, pos := range zigzag49 {
		if got, want := int(avgB[pos]), ilog2(refAvg77(refA, refL, refAL, pos), avgBuckets); got != want {
			t.Fatalf("avg bucket at %d = %d, reference %d", pos, got, want)
		}
	}
	// The dense avg77 the no-edge-prediction configuration uses.
	for _, pos := range []uint8{1, 2, 7, 8, 16, 56} {
		if got, want := avg77(above, left, aboveLeft, int(pos)), refAvg77(refA, refL, refAL, pos); got != want {
			t.Fatalf("avg77 at %d = %d, reference %d", pos, got, want)
		}
	}

	// Both orientations' Lakhani predictions.
	var acc [2][8]int64
	edgeInterior(&in.cur, q, acMask(&in.cur)&mask49, &acc)
	edgeAbove(&in.above, q, acMask(&in.above), &acc[0])
	edgeLeft(&in.left, q, acMask(&in.left), &acc[1])
	for i := 1; i < 8; i++ {
		if got, want := edgePrediction(acc[0][i], recips[0][i]), lakhaniRow(in.above[:], in.cur[:], q, i); got != want {
			t.Fatalf("row prediction %d = %d, lakhaniRow %d", i, got, want)
		}
		if got, want := edgePrediction(acc[1][i], recips[1][i]), lakhaniCol(in.left[:], in.cur[:], q, i); got != want {
			t.Fatalf("column prediction %d = %d, lakhaniCol %d", i, got, want)
		}
	}

	// DC: neighbour edge caches, then the fused prediction.
	var abEd, lfEd *refEdges
	nbA, nbL := zeroEdges, zeroEdges
	sel, n := 0, 0
	if in.hasAbove {
		abEd = new(refEdges)
		computeEdges(in.above[:], q, abEd)
		nbA = newEdges(&in.above, q)
		sel, n = sel|dct.GradAbove, n+8
	}
	if in.hasLeft {
		lfEd = new(refEdges)
		computeEdges(in.left[:], q, lfEd)
		nbL = newEdges(&in.left, q)
		sel, n = sel|dct.GradLeft, n+8
	}
	for i := 0; i < 8; i++ {
		if abEd != nil {
			a6, a7 := int64(abEd.bottom[i]), int64(abEd.bottom[8+i])
			if got, want := int64(nbA.bottom[i]), a7+div(a7-a6, 2); got != want {
				t.Fatalf("above edge %d = %d, reference %d", i, got, want)
			}
		}
		if lfEd != nil {
			l6, l7 := int64(lfEd.right[i]), int64(lfEd.right[8+i])
			if got, want := int64(nbL.right[i]), l7+div(l7-l6, 2); got != want {
				t.Fatalf("left edge %d = %d, reference %d", i, got, want)
			}
		}
	}
	var px dct.Block
	dct.InverseBorder(in.cur[:], q, &px)
	wantPred, wantConf := dcPrediction(&px, q, abEd, lfEd, in.prevDC)
	var g dct.Gradient
	dct.BorderGradient(in.cur[:], q, &nbA.bottom, &nbL.right, sel, &g)
	gotPred, gotConf := in.prevDC, confBuckets-1
	if n > 0 {
		gotPred, gotConf = gradientDC(&g, n, recips[0][0])
	}
	if gotPred != wantPred || gotConf != wantConf {
		t.Fatalf("DC prediction (%d, %d), reference (%d, %d)", gotPred, gotConf, wantPred, wantConf)
	}
}

// FuzzBlockContext holds the batched, divide-free context kernels to the
// scalar per-coefficient references: 7x7 buckets, both Lakhani edge
// orientations, the neighbour edge caches and the DC prediction and
// confidence, with and without neighbours, over 8- and 16-bit quantizers.
func FuzzBlockContext(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for mode := byte(0); mode < 8; mode++ {
		raw := make([]byte, 1+128+4*128+2)
		rng.Read(raw)
		raw[0] = mode
		f.Add(raw)
	}
	// Extreme steps and magnitudes: every quantizer 65535 (or 1), every
	// coefficient at its bound.
	for _, fill := range []byte{0xFF, 0x00} {
		raw := make([]byte, 1+128+4*128+2)
		for i := range raw {
			raw[i] = fill
		}
		raw[0] = 7
		for i := 129; i < len(raw); i += 2 {
			raw[i], raw[i+1] = 0x07, 0xFF // r>>1 = 1023, present, positive
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkBlockContext(t, decodeBlockCtx(raw))
	})
}

// TestBlockContextRandom runs the FuzzBlockContext check over seeded
// random blocks on every plain test run.
func TestBlockContextRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	raw := make([]byte, 1+128+4*128+2)
	for iter := 0; iter < 3000; iter++ {
		rng.Read(raw)
		checkBlockContext(t, decodeBlockCtx(raw))
	}
	// Saturated corners: the largest coefficients against the largest and
	// smallest steps.
	for _, qv := range []uint16{1, 65535} {
		in := &blockCtxInput{hasAbove: true, hasLeft: true}
		for i := range in.q {
			in.q[i] = qv
		}
		for _, blk := range []*[64]int16{&in.cur, &in.above, &in.left, &in.aboveLeft} {
			for i := range blk {
				blk[i] = int16(1023 - 2046*(i%2))
			}
			blk[0] = math.MaxInt16 % 2048
		}
		checkBlockContext(t, in)
	}
}
