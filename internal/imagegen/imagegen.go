// Package imagegen synthesizes the evaluation corpus: procedurally generated
// photographic-looking images encoded as baseline JPEG with this
// repository's own encoder, plus the corrupted variants the paper's §6.2
// error-code table is built from.
//
// The paper evaluated on 233,376 randomly sampled Dropbox chunks; that data
// is unavailable, so this generator stands in for it. Multi-octave value
// noise plus gradients and hard-edged shapes produce DCT statistics with
// the properties Lepton's model exploits: spatial correlation between
// neighboring blocks, smooth DC gradients, and edge-aligned 7x1/1x7 energy.
package imagegen

import (
	"math/rand"

	"lepton/internal/dct"
	"lepton/internal/huffman"
	"lepton/internal/jpeg"
)

// Plane is a single-channel image.
type Plane struct {
	W, H int
	Pix  []uint8
}

// NewPlane allocates a W×H plane.
func NewPlane(w, h int) *Plane {
	return &Plane{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y), clamping coordinates to the plane.
func (p *Plane) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= p.W {
		x = p.W - 1
	}
	if y >= p.H {
		y = p.H - 1
	}
	return p.Pix[y*p.W+x]
}

// Image is a YCbCr image at full resolution.
type Image struct {
	Y, Cb, Cr *Plane
}

// valueNoise generates smooth noise by bilinear interpolation of a coarse
// random lattice.
func valueNoise(rng *rand.Rand, w, h, cell int, amp float64, dst []float64) {
	gw := w/cell + 2
	gh := h/cell + 2
	grid := make([]float64, gw*gh)
	for i := range grid {
		grid[i] = rng.Float64()*2 - 1
	}
	for y := 0; y < h; y++ {
		gy := y / cell
		fy := float64(y%cell) / float64(cell)
		for x := 0; x < w; x++ {
			gx := x / cell
			fx := float64(x%cell) / float64(cell)
			a := grid[gy*gw+gx]
			b := grid[gy*gw+gx+1]
			c := grid[(gy+1)*gw+gx]
			d := grid[(gy+1)*gw+gx+1]
			v := a*(1-fx)*(1-fy) + b*fx*(1-fy) + c*(1-fx)*fy + d*fx*fy
			dst[y*w+x] += v * amp
		}
	}
}

// Synthesize renders a deterministic pseudo-photograph of the given size.
func Synthesize(seed int64, w, h int) *Image {
	rng := rand.New(rand.NewSource(seed))
	luma := make([]float64, w*h)
	cb := make([]float64, w*h)
	cr := make([]float64, w*h)

	// Base vertical gradient (sky-to-ground) with random orientation.
	g0 := rng.Float64()*120 - 60
	g1 := rng.Float64()*120 - 60
	for y := 0; y < h; y++ {
		v := g0 + (g1-g0)*float64(y)/float64(max(h-1, 1))
		for x := 0; x < w; x++ {
			luma[y*w+x] = v
		}
	}
	// Noise octaves: large structures down to fine grain.
	for _, oct := range []struct {
		cell int
		amp  float64
	}{{96, 40}, {32, 25}, {12, 14}, {4, 7}, {2, 2.5}} {
		if oct.cell < w && oct.cell < h {
			valueNoise(rng, w, h, oct.cell, oct.amp, luma)
		}
	}
	// Chroma varies slowly.
	for _, oct := range []struct {
		cell int
		amp  float64
	}{{128, 25}, {48, 12}} {
		if oct.cell < w && oct.cell < h {
			valueNoise(rng, w, h, oct.cell, oct.amp, cb)
			valueNoise(rng, w, h, oct.cell, oct.amp, cr)
		}
	}
	// Hard-edged shapes give the 7x1/1x7 predictors something to chew on.
	nShapes := 3 + rng.Intn(8)
	for i := 0; i < nShapes; i++ {
		x0 := rng.Intn(w)
		y0 := rng.Intn(h)
		sw := rng.Intn(w/2+1) + 4
		sh := rng.Intn(h/2+1) + 4
		dv := rng.Float64()*140 - 70
		dcb := rng.Float64()*40 - 20
		dcr := rng.Float64()*40 - 20
		for y := y0; y < min(y0+sh, h); y++ {
			for x := x0; x < min(x0+sw, w); x++ {
				luma[y*w+x] += dv
				cb[y*w+x] += dcb
				cr[y*w+x] += dcr
			}
		}
	}
	img := &Image{Y: NewPlane(w, h), Cb: NewPlane(w, h), Cr: NewPlane(w, h)}
	for i := 0; i < w*h; i++ {
		img.Y.Pix[i] = clamp8(128 + luma[i])
		img.Cb.Pix[i] = clamp8(128 + cb[i])
		img.Cr.Pix[i] = clamp8(128 + cr[i])
	}
	return img
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// Subsample box-filters a plane by factors (sx, sy).
func Subsample(p *Plane, sx, sy int) *Plane {
	if sx == 1 && sy == 1 {
		return p
	}
	w := (p.W + sx - 1) / sx
	h := (p.H + sy - 1) / sy
	out := NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var sum, n int
			for dy := 0; dy < sy; dy++ {
				for dx := 0; dx < sx; dx++ {
					px := x*sx + dx
					py := y*sy + dy
					if px < p.W && py < p.H {
						sum += int(p.Pix[py*p.W+px])
						n++
					}
				}
			}
			out.Pix[y*w+x] = uint8((sum + n/2) / n)
		}
	}
	return out
}

// planeToCoefficients converts a plane to quantized DCT coefficients for a
// component of the given block geometry (edge pixels replicated).
func planeToCoefficients(p *Plane, blocksWide, blocksHigh int, q *[64]uint16) []int16 {
	out := make([]int16, blocksWide*blocksHigh*64)
	var px, freq, quant dct.Block
	for br := 0; br < blocksHigh; br++ {
		for bc := 0; bc < blocksWide; bc++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					px[y*8+x] = int32(p.At(bc*8+x, br*8+y)) - 128
				}
			}
			dct.Forward(&px, &freq)
			dct.Quantize(&freq, q, &quant)
			base := (br*blocksWide + bc) * 64
			for i := 0; i < 64; i++ {
				v := quant[i]
				// Clamp to baseline-representable magnitudes.
				if i == 0 {
					if v > 2047 {
						v = 2047
					}
					if v < -2048 {
						v = -2048
					}
				} else {
					if v > 1023 {
						v = 1023
					}
					if v < -1023 {
						v = -1023
					}
				}
				out[base+i] = int16(v)
			}
		}
	}
	return out
}

// Options controls JPEG synthesis.
type Options struct {
	Quality         int  // 1..100
	SubsampleChroma bool // 4:2:0 when true, 4:4:4 otherwise
	Grayscale       bool
	// CMYK emits a four-component file (components C,M,Y,K all 1x1); the
	// K plane is derived from inverted luma. Production Lepton rejected
	// these (§6.2); the optional 4th-channel model accepts them.
	CMYK            bool
	RestartInterval int
	PadBit          uint8
	// TrailerGarbage appends bytes after EOI (thumbnail-style junk, §A.3).
	TrailerGarbage []byte
}

// EncodeJPEG renders img to a baseline JPEG per opts using this repository's
// encoder.
func EncodeJPEG(img *Image, opts Options) ([]byte, error) {
	lq := dct.ScaleQuant(&dct.StdLuminanceQuant, opts.Quality)
	cq := dct.ScaleQuant(&dct.StdChrominanceQuant, opts.Quality)
	spec := &jpeg.EncodeSpec{
		Width:           img.Y.W,
		Height:          img.Y.H,
		RestartInterval: opts.RestartInterval,
		PadBit:          opts.PadBit,
	}
	spec.Quant[0] = lq
	spec.Quant[1] = cq
	spec.DC[0] = &huffman.StdDCLuminance
	spec.AC[0] = &huffman.StdACLuminance
	spec.DC[1] = &huffman.StdDCChrominance
	spec.AC[1] = &huffman.StdACChrominance

	var coeff [][]int16
	if opts.CMYK {
		spec.Components = []jpeg.Component{
			{ID: 'C', H: 1, V: 1, TQ: 0, TD: 0, TA: 0},
			{ID: 'M', H: 1, V: 1, TQ: 1, TD: 1, TA: 1},
			{ID: 'Y', H: 1, V: 1, TQ: 1, TD: 1, TA: 1},
			{ID: 'K', H: 1, V: 1, TQ: 0, TD: 0, TA: 0},
		}
		bw := (img.Y.W + 7) / 8
		bh := (img.Y.H + 7) / 8
		// Derive a K plane from inverted luma.
		k := NewPlane(img.Y.W, img.Y.H)
		for i, v := range img.Y.Pix {
			k.Pix[i] = 255 - v
		}
		coeff = [][]int16{
			planeToCoefficients(img.Y, bw, bh, &lq),
			planeToCoefficients(img.Cb, bw, bh, &cq),
			planeToCoefficients(img.Cr, bw, bh, &cq),
			planeToCoefficients(k, bw, bh, &lq),
		}
	} else if opts.Grayscale {
		spec.Components = []jpeg.Component{{ID: 1, H: 1, V: 1, TQ: 0, TD: 0, TA: 0}}
		bw := (img.Y.W + 7) / 8
		bh := (img.Y.H + 7) / 8
		coeff = [][]int16{planeToCoefficients(img.Y, bw, bh, &lq)}
	} else {
		sh, sv := 1, 1
		if opts.SubsampleChroma {
			sh, sv = 2, 2
		}
		spec.Components = []jpeg.Component{
			{ID: 1, H: sh, V: sv, TQ: 0, TD: 0, TA: 0},
			{ID: 2, H: 1, V: 1, TQ: 1, TD: 1, TA: 1},
			{ID: 3, H: 1, V: 1, TQ: 1, TD: 1, TA: 1},
		}
		mcuW := (img.Y.W + 8*sh - 1) / (8 * sh)
		mcuH := (img.Y.H + 8*sv - 1) / (8 * sv)
		coeff = [][]int16{
			planeToCoefficients(img.Y, mcuW*sh, mcuH*sv, &lq),
			planeToCoefficients(Subsample(img.Cb, sh, sv), mcuW, mcuH, &cq),
			planeToCoefficients(Subsample(img.Cr, sh, sv), mcuW, mcuH, &cq),
		}
	}
	data, err := jpeg.WriteBaseline(spec, coeff)
	if err != nil {
		return nil, err
	}
	if len(opts.TrailerGarbage) > 0 {
		data = append(data, opts.TrailerGarbage...)
	}
	return data, nil
}

// Generate produces a deterministic synthetic JPEG: seed selects content,
// size and encoding parameters.
func Generate(seed int64, w, h int) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x1ef7a9))
	img := Synthesize(seed, w, h)
	opts := Options{
		Quality:         []int{60, 72, 77, 83, 88, 92, 95}[rng.Intn(7)],
		SubsampleChroma: rng.Intn(3) != 0, // 2/3 of photos are 4:2:0
		Grayscale:       rng.Intn(12) == 0,
		PadBit:          1,
	}
	if rng.Intn(4) == 0 {
		opts.RestartInterval = []int{1, 2, 4, 8, 16, 64}[rng.Intn(6)]
	}
	if rng.Intn(10) == 0 {
		opts.PadBit = 0
	}
	if rng.Intn(16) == 0 {
		junk := make([]byte, rng.Intn(512)+16)
		rng.Read(junk)
		opts.TrailerGarbage = junk
	}
	return EncodeJPEG(img, opts)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
