package model

import (
	"testing"

	"lepton/internal/arith"
	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// benchImage is one fixed, seeded imagegen picture: its coefficient planes
// in raster block order, coded as a single segment per component.
type benchImage struct {
	name   string
	planes []ComponentPlane
	rs, re []int
	blocks int
}

// loadBenchImage synthesizes a w×h 4:2:0 picture at the given quality and
// recovers its quantized coefficient planes through the JPEG scan decoder.
func loadBenchImage(b *testing.B, name string, seed int64, w, h, quality int) *benchImage {
	b.Helper()
	data, err := imagegen.EncodeJPEG(imagegen.Synthesize(seed, w, h), imagegen.Options{Quality: quality, SubsampleChroma: true})
	if err != nil {
		b.Fatal(err)
	}
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		b.Fatal(err)
	}
	img := &benchImage{name: name}
	for i := range f.Components {
		c := &f.Components[i]
		img.planes = append(img.planes, Plane(c.BlocksWide, c.BlocksHigh, &f.Quant[c.TQ], s.Coeff[i]))
		img.rs = append(img.rs, 0)
		img.re = append(img.re, c.BlocksHigh)
		img.blocks += c.BlocksWide * c.BlocksHigh
	}
	return img
}

func benchImages(b *testing.B) []*benchImage {
	return []*benchImage{
		loadBenchImage(b, "640x480-q85", 1, 640, 480, 85),
		loadBenchImage(b, "96x64-thumb", 2, 96, 64, 85),
	}
}

func reportPerBlock(b *testing.B, blocks int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
}

// BenchmarkSegmentEncode measures the model plus arithmetic encoder over
// whole images, one segment per component.
func BenchmarkSegmentEncode(b *testing.B) {
	for _, img := range benchImages(b) {
		b.Run(img.name, func(b *testing.B) {
			c := NewCodec(img.planes, img.rs, img.re, DefaultFlags())
			e := arith.NewEncoder()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reset(img.planes, img.rs, img.re, DefaultFlags())
				e.Reset()
				c.EncodeSegment(e)
				e.Flush()
			}
			reportPerBlock(b, img.blocks)
		})
	}
}

// BenchmarkSegmentDecode measures the model plus arithmetic decoder over
// the same images, decoding into zeroed planes.
func BenchmarkSegmentDecode(b *testing.B) {
	for _, img := range benchImages(b) {
		b.Run(img.name, func(b *testing.B) {
			e := arith.NewEncoder()
			NewCodec(img.planes, img.rs, img.re, DefaultFlags()).EncodeSegment(e)
			stream := append([]byte(nil), e.Flush()...)
			out := clonePlanes(img.planes)
			c := NewCodec(out, img.rs, img.re, DefaultFlags())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range out {
					clear(p.Slab())
				}
				c.Reset(out, img.rs, img.re, DefaultFlags())
				if err := c.DecodeSegment(arith.NewDecoder(stream)); err != nil {
					b.Fatal(err)
				}
			}
			reportPerBlock(b, img.blocks)
		})
	}
}
