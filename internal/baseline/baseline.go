// Package baseline implements the comparator codecs of the paper's
// evaluation (§2, §4, Figures 1-3): generic entropy codecs (Deflate at
// several levels, an order-1 adaptive range coder standing in for the
// LZMA/Brotli/Zstandard class), format-aware pixel-exact tools (a
// JPEGrescan-style Huffman optimizer, a JPEG-spec-style arithmetic coder),
// and the PackJPG-style configuration of the Lepton engine itself.
package baseline

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lepton/internal/arith"
	"lepton/internal/core"
	"lepton/internal/model"
)

// Codec is the interface the benchmark harness drives.
type Codec interface {
	// Name is the label used in figures.
	Name() string
	// Compress returns the compressed representation.
	Compress(data []byte) ([]byte, error)
	// Decompress inverts Compress. For non-file-preserving codecs it
	// returns the re-encoded (pixel-exact) file instead.
	Decompress(comp []byte) ([]byte, error)
	// FilePreserving reports whether Decompress restores the exact
	// original bytes (paper §2's taxonomy).
	FilePreserving() bool
}

// --- Generic codecs -------------------------------------------------------

// Flate wraps compress/flate at a given level (Deflate in the paper).
type Flate struct{ Level int }

func (f Flate) Name() string         { return fmt.Sprintf("deflate-%d", f.Level) }
func (f Flate) FilePreserving() bool { return true }

func (f Flate) Compress(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, f.Level)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (f Flate) Decompress(comp []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(comp))
	defer r.Close()
	return io.ReadAll(r)
}

// RC1 is an order-1 adaptive binary range coder over raw bytes: each byte is
// tree-coded in a context selected by the previous byte (65,536 adaptive
// bins). It is this repository's stand-in for the heavyweight generic
// entropy coders (LZMA et al.): slow, adaptive, and — like them — nearly
// useless on already-compressed JPEG scans (§2, §4.1).
type RC1 struct{}

func (RC1) Name() string         { return "rc-o1" }
func (RC1) FilePreserving() bool { return true }

// rc1Bins is the full context table. 256 contexts x 256 tree nodes.
type rc1Bins [256][256]arith.Bin

func (RC1) Compress(data []byte) ([]byte, error) {
	bins := &rc1Bins{}
	e := arith.NewEncoder()
	prev := byte(0)
	for _, b := range data {
		node := 1
		for i := 7; i >= 0; i-- {
			bit := int(b>>uint(i)) & 1
			e.Encode(&bins[prev][node], bit)
			node = node<<1 | bit
		}
		prev = b
	}
	stream := e.Flush()
	out := make([]byte, 4+len(stream))
	binary.LittleEndian.PutUint32(out, uint32(len(data)))
	copy(out[4:], stream)
	return out, nil
}

func (RC1) Decompress(comp []byte) ([]byte, error) {
	if len(comp) < 4 {
		return nil, errors.New("rc1: short input")
	}
	n := binary.LittleEndian.Uint32(comp)
	if n > 1<<30 {
		return nil, errors.New("rc1: absurd length")
	}
	bins := &rc1Bins{}
	d := arith.NewDecoder(comp[4:])
	out := make([]byte, n)
	prev := byte(0)
	for j := range out {
		node := 1
		for i := 0; i < 8; i++ {
			bit := d.Decode(&bins[prev][node])
			node = node<<1 | bit
		}
		out[j] = byte(node & 0xFF)
		prev = out[j]
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return out, nil
}

// --- Lepton-engine configurations -----------------------------------------

// Lepton is the deployed configuration: automatic thread segments, full
// model.
type Lepton struct{}

func (Lepton) Name() string         { return "lepton" }
func (Lepton) FilePreserving() bool { return true }

func (Lepton) Compress(data []byte) ([]byte, error) {
	res, err := core.Encode(data, core.EncodeOptions{})
	if err != nil {
		return nil, err
	}
	return res.Compressed, nil
}

func (Lepton) Decompress(comp []byte) ([]byte, error) { return core.Decode(comp, 0) }

// Lepton1Way is the single-threaded maximum-compression configuration of
// §4.1: statistic bins tallied across the whole image.
type Lepton1Way struct{}

func (Lepton1Way) Name() string         { return "lepton-1way" }
func (Lepton1Way) FilePreserving() bool { return true }

func (Lepton1Way) Compress(data []byte) ([]byte, error) {
	res, err := core.Encode(data, core.EncodeOptions{SingleModel: true})
	if err != nil {
		return nil, err
	}
	return res.Compressed, nil
}

func (Lepton1Way) Decompress(comp []byte) ([]byte, error) { return core.Decode(comp, 0) }

// PackJPGStyle models the 2007 PackJPG algorithm inside this engine: single
// global model (no parallel segments), uniform AC treatment, previous-DC
// prediction. Decode is single-threaded and the whole file must be buffered
// before any byte is output, which is exactly why the paper built Lepton
// instead (§2).
type PackJPGStyle struct{}

func (PackJPGStyle) Name() string         { return "packjpg-style" }
func (PackJPGStyle) FilePreserving() bool { return true }

func (PackJPGStyle) Compress(data []byte) ([]byte, error) {
	res, err := core.Encode(data, core.EncodeOptions{
		SingleModel: true,
		Flags:       &model.Flags{EdgePrediction: false, DCGradient: false},
	})
	if err != nil {
		return nil, err
	}
	return res.Compressed, nil
}

func (PackJPGStyle) Decompress(comp []byte) ([]byte, error) {
	// Whole-buffer decode; no streaming.
	var buf bytes.Buffer
	if err := core.DecodeTo(&buf, comp, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LeptonPooled is the blockserver-service configuration introduced by the
// streaming/pooled codec pipeline: one long-lived core.Codec whose pools
// carry model tables, coefficient planes, and scratch across conversions.
// Output is byte-identical to Lepton; only steady-state allocation differs.
type LeptonPooled struct{}

// pooledCodec is shared by every LeptonPooled value, mirroring a process-
// wide service codec.
var pooledCodec = core.NewCodec()

func (LeptonPooled) Name() string         { return "lepton-pooled" }
func (LeptonPooled) FilePreserving() bool { return true }

func (LeptonPooled) Compress(data []byte) ([]byte, error) {
	res, err := pooledCodec.Encode(data, core.EncodeOptions{})
	if err != nil {
		return nil, err
	}
	return res.Compressed, nil
}

func (LeptonPooled) Decompress(comp []byte) ([]byte, error) {
	return pooledCodec.Decode(comp, 0)
}
