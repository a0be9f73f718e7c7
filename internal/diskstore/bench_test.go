package diskstore

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// The disk store's three hot paths: the acknowledged put (append plus the
// group commit's fsync), the indexed read with its CRC re-check, and the
// crash-recovery replay that rebuilds the index from the segment log on
// open. 64 KiB chunks are the example deployments' size; put and get cost
// is dominated by fsync and CRC, not chunk size.
const (
	benchChunkSize = 64 << 10
	benchChunkN    = 256 // replay log: 256 x 64 KiB = 16 MiB
)

func benchPayload() []byte {
	payload := make([]byte, benchChunkSize)
	rand.New(rand.NewSource(42)).Read(payload)
	return payload
}

// benchHash derives a key from a counter. The store keys on the
// caller-supplied content hash and never recomputes it, so this keeps
// hashing cost out of the measurement.
func benchHash(i int) (h Hash) {
	binary.LittleEndian.PutUint64(h[:], uint64(i))
	return h
}

// fillBenchStore writes benchChunkN chunks without fsync.
func fillBenchStore(b *testing.B, dir string, payload []byte) *Store {
	s := mustOpen(b, dir, testOptions())
	for i := 1; i <= benchChunkN; i++ {
		mustPut(b, s, benchHash(i), payload)
	}
	return s
}

// BenchmarkDiskStorePut measures an acknowledged durable write: every op
// appends a fresh record and blocks until an fsync covers it
// (SyncInterval 0), one committer deep.
func BenchmarkDiskStorePut(b *testing.B) {
	payload := benchPayload()
	s := mustOpen(b, b.TempDir(), Options{CompactInterval: -1})
	defer s.Close()
	b.SetBytes(benchChunkSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(benchHash(i+1), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskStoreGet measures indexed reads over a warm store, each
// re-verifying the record CRC.
func BenchmarkDiskStoreGet(b *testing.B) {
	s := fillBenchStore(b, b.TempDir(), benchPayload())
	defer s.Close()
	b.SetBytes(benchChunkSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, ok, err := s.Get(benchHash(i%benchChunkN + 1))
		if err != nil || !ok || len(data) != benchChunkSize {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkDiskStoreReplayOpen measures opening a populated 16 MiB log:
// the warm-restart cost of rebuilding the in-memory index and
// CRC-checking every record.
func BenchmarkDiskStoreReplayOpen(b *testing.B) {
	dir := b.TempDir()
	if err := fillBenchStore(b, dir, benchPayload()).Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchChunkN * benchChunkSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mustOpen(b, dir, testOptions())
		if s.Len() != benchChunkN {
			b.Fatalf("replayed %d chunks, want %d", s.Len(), benchChunkN)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
