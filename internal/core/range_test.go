package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lepton/internal/core"
	"lepton/internal/huffman"
	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// progressiveJPEG renders a spectral-selection progressive file for the
// fallback tests (mirrors the root-level golden fixture construction).
func progressiveJPEG(t *testing.T, seed int64, w, h int) []byte {
	t.Helper()
	img := imagegen.Synthesize(seed, w, h)
	base, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, SubsampleChroma: true, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := jpeg.Parse(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := jpeg.DecodeScan(f)
	if err != nil {
		t.Fatal(err)
	}
	spec := &jpeg.ProgressiveSpec{}
	spec.Width, spec.Height = f.Width, f.Height
	for _, c := range f.Components {
		spec.Components = append(spec.Components, jpeg.Component{ID: c.ID, H: c.H, V: c.V, TQ: c.TQ})
	}
	spec.Quant = f.Quant
	spec.DC = [4]*huffman.Spec{&huffman.StdDCLuminance, &huffman.StdDCChrominance}
	spec.AC = [4]*huffman.Spec{&huffman.StdACLuminance, &huffman.StdACChrominance}
	spec.PadBit = 1
	data, err := jpeg.WriteProgressive(spec, s.Coeff)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// rangeSweep checks DecodeRange against slices of the full decode for a
// deterministic set of offsets plus seeded random probes, and returns how
// many requests it issued.
func rangeSweep(t *testing.T, comp, full []byte, seed int64) int {
	t.Helper()
	size := int64(len(full))
	type probe struct{ off, n int64 }
	probes := []probe{
		{0, 0},               // empty
		{0, 1},               // first byte
		{0, 16},              // header prefix
		{0, size},            // whole file
		{size - 1, 1},        // last byte
		{size - 1, 100},      // clamped tail
		{size, 5},            // past EOF → empty
		{size + 100, 5},      // far past EOF → empty
		{size / 2, 1},        // single mid byte
		{size / 2, 1024},     // the canonical 1 KB read
		{size / 3, size / 3}, // large interior span
		{1, size - 2},        // all but first/last byte
		{0, size + 999},      // over-long clamps to size
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 24; i++ {
		off := rng.Int63n(size)
		n := rng.Int63n(size/4 + 1)
		probes = append(probes, probe{off, n})
	}
	for _, p := range probes {
		got, err := core.DecodeRange(comp, p.off, p.n, 0)
		if err != nil {
			t.Fatalf("DecodeRange(off=%d n=%d): %v", p.off, p.n, err)
		}
		wantN, err := core.RangeLength(comp, p.off, p.n)
		if err != nil {
			t.Fatalf("RangeLength(off=%d n=%d): %v", p.off, p.n, err)
		}
		a := p.off
		if a > size {
			a = size
		}
		z := p.off + p.n
		if z > size || z < 0 {
			z = size
		}
		if z < a {
			z = a
		}
		want := full[a:z]
		if int64(len(got)) != wantN {
			t.Fatalf("DecodeRange(off=%d n=%d) returned %d bytes, RangeLength says %d",
				p.off, p.n, len(got), wantN)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("DecodeRange(off=%d n=%d) differs from full-decode slice at byte %d (lens %d vs %d)",
				p.off, p.n, i, len(got), len(want))
		}
	}
	return len(probes)
}

func TestDecodeRangeDifferential(t *testing.T) {
	cases := []struct {
		name string
		data func(t *testing.T) []byte
		opt  core.EncodeOptions
	}{
		{"color-multiseg", func(t *testing.T) []byte { return mustGen(t, 7, 640, 480) },
			core.EncodeOptions{ForceSegments: 4}},
		{"color-small", func(t *testing.T) []byte { return mustGen(t, 3, 96, 64) },
			core.EncodeOptions{}},
		{"gray", func(t *testing.T) []byte {
			img := imagegen.Synthesize(11, 200, 150)
			data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, Grayscale: true, PadBit: 1})
			if err != nil {
				t.Fatal(err)
			}
			return data
		}, core.EncodeOptions{ForceSegments: 2}},
		{"restart-markers", func(t *testing.T) []byte {
			img := imagegen.Synthesize(13, 320, 240)
			data, err := imagegen.EncodeJPEG(img, imagegen.Options{
				Quality: 85, RestartInterval: 5, PadBit: 1, SubsampleChroma: true,
				TrailerGarbage: bytes.Repeat([]byte{0xAB}, 300)})
			if err != nil {
				t.Fatal(err)
			}
			return data
		}, core.EncodeOptions{ForceSegments: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.data(t)
			res, err := core.Encode(data, tc.opt)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			full, err := core.Decode(res.Compressed, 0)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !bytes.Equal(full, data) {
				t.Fatal("full decode does not round-trip")
			}
			before := core.RangeStats()
			n := rangeSweep(t, res.Compressed, full, 42)
			after := core.RangeStats()
			if got := after["range_fast"] - before["range_fast"]; got != int64(n) {
				t.Errorf("expected all %d requests on the fast path, got %d", n, got)
			}
		})
	}
}

// TestDecodeRangeFallbacks covers every input class the fast path refuses:
// index-less containers, progressive scans, and four-component files must
// still produce byte-exact slices via the full-decode fallback, and the
// matching counter must move.
func TestDecodeRangeFallbacks(t *testing.T) {
	base := mustGen(t, 9, 320, 240)
	progressive := progressiveJPEG(t, 17, 240, 180)
	cmykImg := imagegen.Synthesize(19, 176, 144)
	cmyk, err := imagegen.EncodeJPEG(cmykImg, imagegen.Options{Quality: 85, CMYK: true, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		data    []byte
		opt     core.EncodeOptions
		counter string
	}{
		{"no-index", base, core.EncodeOptions{ForceSegments: 3, DisableSeekIndex: true},
			"range_fallback_no_index"},
		{"progressive", progressive, core.EncodeOptions{AllowProgressive: true},
			"range_fallback_unsupported"},
		{"cmyk", cmyk, core.EncodeOptions{AllowCMYK: true},
			"range_fallback_unsupported"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Encode(tc.data, tc.opt)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			full, err := core.Decode(res.Compressed, 0)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			before := core.RangeStats()
			rangeSweep(t, res.Compressed, full, 7)
			after := core.RangeStats()
			if after[tc.counter] <= before[tc.counter] {
				t.Errorf("counter %s did not advance (%d -> %d)",
					tc.counter, before[tc.counter], after[tc.counter])
			}
		})
	}
}

// A container whose trailing index section is damaged must silently fall
// back to full decode — never fail, never return wrong bytes.
func TestDecodeRangeCorruptIndexFallsBack(t *testing.T) {
	data := mustGen(t, 15, 400, 300)
	res, err := core.Encode(data, core.EncodeOptions{ForceSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := core.Encode(data, core.EncodeOptions{ForceSegments: 3, DisableSeekIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	streamEnd := len(bare.Compressed)
	if streamEnd >= len(res.Compressed) {
		t.Fatalf("no index section present (%d vs %d bytes)", streamEnd, len(res.Compressed))
	}
	full, err := core.Decode(res.Compressed, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte in the middle of the index section, and separately
	// truncate half the section away.
	corrupt := append([]byte(nil), res.Compressed...)
	corrupt[streamEnd+(len(corrupt)-streamEnd)/2] ^= 0x5A
	truncated := append([]byte(nil), res.Compressed[:streamEnd+(len(res.Compressed)-streamEnd)/2]...)
	for _, comp := range [][]byte{corrupt, truncated} {
		got, err := core.DecodeRange(comp, int64(len(full))/2, 512, 0)
		if err != nil {
			t.Fatalf("DecodeRange on damaged index: %v", err)
		}
		want := full[len(full)/2 : len(full)/2+512]
		if !bytes.Equal(got, want) {
			t.Fatal("DecodeRange on damaged index returned wrong bytes")
		}
	}
}

func TestDecodeRangeRawContainer(t *testing.T) {
	// Raw passthrough containers serve ranges by slicing the stored bytes.
	blob := bytes.Repeat([]byte("lepton raw range "), 400)
	c := &core.Container{Mode: core.ModeRaw, Raw: blob, OutputSize: uint32(len(blob))}
	comp, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DecodeRange(comp, 17, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob[17:117]) {
		t.Fatal("raw range mismatch")
	}
}

func TestDecodeRangeInvalidArgs(t *testing.T) {
	data := mustGen(t, 5, 96, 64)
	res, err := core.Encode(data, core.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeRange(res.Compressed, -1, 10, 0); !errors.Is(err, core.ErrInvalidRange) {
		t.Fatalf("negative offset: got %v", err)
	}
	if _, err := core.DecodeRange(res.Compressed, 0, -10, 0); !errors.Is(err, core.ErrInvalidRange) {
		t.Fatalf("negative length: got %v", err)
	}
	if _, err := core.RangeLength(res.Compressed, -1, 1); !errors.Is(err, core.ErrInvalidRange) {
		t.Fatalf("RangeLength negative offset: got %v", err)
	}
	if _, err := core.DecodeRange([]byte("not a container"), 0, 10, 0); err == nil {
		t.Fatal("garbage container: expected error")
	}
}

// BenchmarkRangeTTFB measures range-serving time to first byte against the
// cost it avoids: a 1 KiB (and 64 KiB) ranged read of a ~20 MB
// seek-indexed container versus decompressing the whole file. A small read
// costs one or two thread segments, not the file.
func BenchmarkRangeTTFB(b *testing.B) {
	// ~20 MB baseline JPEG: a high-quality, non-subsampled synthetic photo,
	// encoded at ForceSegments 32 so the seek index has real granularity.
	jpg, err := imagegen.EncodeJPEG(imagegen.Synthesize(9, 10200, 7650),
		imagegen.Options{Quality: 95, PadBit: 1})
	if err != nil {
		b.Fatal(err)
	}
	// A 78-MP image's row windows exceed the default 24-MiB decode budget;
	// raise it here (the production ceiling is per-file size policy, not a
	// correctness bound).
	const memBudget = 96 << 20
	res, err := core.Encode(jpg, core.EncodeOptions{
		ForceSegments: 32, MemDecodeBudget: memBudget, MemEncodeBudget: 512 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	comp := res.Compressed
	size := int64(len(jpg))

	b.Run(fmt.Sprintf("full-decode@%dMB", size>>20), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Decode(comp, memBudget); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, rd := range []struct {
		name string
		n    int64
	}{{"1KiB", 1 << 10}, {"64KiB", 64 << 10}} {
		b.Run(fmt.Sprintf("%s@%dMB", rd.name, size>>20), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				off := rng.Int63n(size - rd.n)
				got, err := core.DecodeRange(comp, off, rd.n, memBudget)
				if err != nil || int64(len(got)) != rd.n {
					b.Fatalf("range read: %d bytes, %v", len(got), err)
				}
			}
		})
	}
}
