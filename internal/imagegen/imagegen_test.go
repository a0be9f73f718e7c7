package imagegen_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

func TestSynthesizeDeterministic(t *testing.T) {
	a := imagegen.Synthesize(5, 64, 48)
	b := imagegen.Synthesize(5, 64, 48)
	if !bytes.Equal(a.Y.Pix, b.Y.Pix) || !bytes.Equal(a.Cb.Pix, b.Cb.Pix) {
		t.Fatal("same seed produced different images")
	}
	c := imagegen.Synthesize(6, 64, 48)
	if bytes.Equal(a.Y.Pix, c.Y.Pix) {
		t.Fatal("different seeds produced identical images")
	}
}

func TestSynthesizeHasStructure(t *testing.T) {
	img := imagegen.Synthesize(7, 128, 128)
	// The image must not be flat: neighboring pixels correlate but the
	// plane has real variance.
	var sum, sumSq float64
	for _, p := range img.Y.Pix {
		sum += float64(p)
		sumSq += float64(p) * float64(p)
	}
	n := float64(len(img.Y.Pix))
	variance := sumSq/n - (sum/n)*(sum/n)
	if variance < 100 {
		t.Fatalf("luma variance %.1f too low — no image structure", variance)
	}
	// Spatial correlation: adjacent-pixel delta much smaller than global
	// std dev (photographic property Lepton's predictors rely on).
	var adj float64
	for i := 1; i < len(img.Y.Pix); i++ {
		d := float64(img.Y.Pix[i]) - float64(img.Y.Pix[i-1])
		adj += d * d
	}
	adj /= n - 1
	if adj > variance {
		t.Fatalf("no spatial correlation: adjacent MSE %.1f vs variance %.1f", adj, variance)
	}
}

func TestGenerateValidJPEG(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		data, err := imagegen.Generate(seed, 96, 80)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		f, err := jpeg.Parse(data, 0)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if _, err := jpeg.DecodeScan(f); err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
	}
}

func TestSubsample(t *testing.T) {
	p := imagegen.NewPlane(4, 4)
	for i := range p.Pix {
		p.Pix[i] = uint8(i * 16)
	}
	s := imagegen.Subsample(p, 2, 2)
	if s.W != 2 || s.H != 2 {
		t.Fatalf("subsampled dims %dx%d", s.W, s.H)
	}
	// Top-left 2x2 block: pixels 0,16,64,80 -> mean 40.
	if s.Pix[0] != 40 {
		t.Fatalf("box filter got %d, want 40", s.Pix[0])
	}
	// Identity when factors are 1.
	if imagegen.Subsample(p, 1, 1) != p {
		t.Fatal("1x1 subsample must be identity")
	}
}

func TestSubsampleOddDimensions(t *testing.T) {
	p := imagegen.NewPlane(5, 3)
	for i := range p.Pix {
		p.Pix[i] = 200
	}
	s := imagegen.Subsample(p, 2, 2)
	if s.W != 3 || s.H != 2 {
		t.Fatalf("dims %dx%d", s.W, s.H)
	}
	for _, v := range s.Pix {
		if v != 200 {
			t.Fatalf("edge handling changed constant plane: %d", v)
		}
	}
}

func TestPlaneAtClamps(t *testing.T) {
	p := imagegen.NewPlane(2, 2)
	p.Pix = []uint8{1, 2, 3, 4}
	if p.At(-5, 0) != 1 || p.At(5, 0) != 2 || p.At(0, 5) != 3 || p.At(9, 9) != 4 {
		t.Fatal("At does not clamp to edges")
	}
}

func TestEncodeJPEGOptionMatrix(t *testing.T) {
	img := imagegen.Synthesize(9, 72, 56)
	opts := []imagegen.Options{
		{Quality: 1, PadBit: 1},
		{Quality: 100, PadBit: 1},
		{Quality: 85, SubsampleChroma: true, PadBit: 0},
		{Quality: 85, Grayscale: true, RestartInterval: 2, PadBit: 1},
	}
	for i, o := range opts {
		data, err := imagegen.EncodeJPEG(img, o)
		if err != nil {
			t.Fatalf("opt %d: %v", i, err)
		}
		if _, err := jpeg.Parse(data, 0); err != nil {
			t.Fatalf("opt %d: parse: %v", i, err)
		}
	}
}

func TestCorruptionsAreClassifiable(t *testing.T) {
	base, err := imagegen.Generate(10, 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"progressive": imagegen.MakeProgressive(base),
		"cmyk":        imagegen.CMYKStub(),
		"notimage":    imagegen.NotImage(1, 256),
		"headeronly":  imagegen.HeaderOnly(base),
		"bigchroma":   imagegen.BigChromaStub(),
		"truncated":   imagegen.Truncate(base, 0.3),
		"zerotail":    imagegen.ZeroFillTail(base, 40),
	}
	for name, data := range cases {
		// Every corruption must be parseable-or-rejected without panic.
		f, err := jpeg.Parse(data, 0)
		if err == nil {
			_, _ = jpeg.DecodeScan(f)
		}
		_ = name
	}
}

func TestAppendSecondImageKeepsFirstIntact(t *testing.T) {
	a, _ := imagegen.Generate(11, 64, 64)
	b, _ := imagegen.Generate(12, 32, 32)
	combo := imagegen.AppendSecondImage(a, b)
	if !bytes.HasPrefix(combo, a) || len(combo) != len(a)+len(b) {
		t.Fatal("concatenation broken")
	}
}

// TestErrorCorpusPinned pins the §6.2 anomaly-mix corpus byte for byte:
// corpusgen -errors output and the error-code table depend on it staying
// stable. The digest covers each file's length and bytes in order.
func TestErrorCorpusPinned(t *testing.T) {
	files := imagegen.ErrorCorpus(1, 200)
	if len(files) != 200 {
		t.Fatalf("got %d files, want 200", len(files))
	}
	h := sha256.New()
	for _, f := range files {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(f)))
		h.Write(n[:])
		h.Write(f)
	}
	const want = "c53132f8a07c4e334af2f257b39f706aa269eb870939b90880eb33e651059c08"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("ErrorCorpus(1, 200) digest = %s, want %s", got, want)
	}
}
