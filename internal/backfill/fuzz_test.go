package backfill

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to the LBK1 checkpoint
// decoder: it must never panic, and any record it accepts must re-encode
// to exactly the bytes it was decoded from.
func FuzzDecodeCheckpoint(f *testing.F) {
	m := Synthetic(1, 8)
	for _, c := range []Checkpoint{
		{},
		{ManifestDigest: m.Digest(), ManifestLen: 8, Shard: 1, Shards: 2, Seq: 3, Cursor: 2, Done: []uint64{5}, Quarantined: []uint64{1, 7}, FilesDone: 2, BytesIn: 900, BytesOut: 700},
	} {
		f.Add(c.encode())
	}
	f.Add([]byte(ckptMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		if back := c.encode(); !bytes.Equal(back, data) {
			t.Fatalf("decoded record re-encodes differently:\nin  %x\nout %x", data, back)
		}
	})
}

// FuzzReadManifest feeds arbitrary text to the manifest reader: it must
// never panic, and any manifest it accepts must survive WriteManifest and
// ReadManifest unchanged, with the written form a fixed point. (The reader
// tolerates comments, blank lines and spacing the writer never emits, so
// the input bytes themselves are not the canonical form.)
func FuzzReadManifest(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteManifest(&buf, Synthetic(2, 5)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(manifestHeader + "\n# comment\n\n 7  -3 96 64 \n")
	f.Add(manifestHeader + "\n1 2 0 4\n")
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ReadManifest(strings.NewReader(text))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteManifest(&out, m); err != nil {
			t.Fatal(err)
		}
		m2, err := ReadManifest(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written manifest rejected: %v\n%s", err, out.String())
		}
		if !reflect.DeepEqual(m2.Entries, m.Entries) {
			t.Fatalf("manifest changed across a write/read round trip")
		}
		var again bytes.Buffer
		if err := WriteManifest(&again, m2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatal("written manifest is not a fixed point")
		}
	})
}
