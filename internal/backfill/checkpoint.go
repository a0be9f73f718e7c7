// Checkpoints persist per-shard backfill progress through the durable disk
// store, inheriting its CRC framing, fsync policy, and torn-tail recovery.
// The store is content-addressed and treats Put as a no-op when the key is
// already present, so a mutable record can't just be rewritten in place:
// each shard ping-pongs between two derived keys (slot = seq%2), doing
// Delete-then-Put on the slot its new sequence number selects. A crash at
// any point leaves at least one intact slot holding either seq or seq-1 —
// recovery decodes both, validates them against the manifest, and resumes
// from the higher sequence. At most one checkpoint interval of acknowledged
// work is re-done after a crash; none is ever lost, because the cursor only
// moves over files whose verify committed before the checkpoint was cut.
package backfill

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// CheckpointStore is the slice of internal/diskstore.Store the checkpoint
// layer needs. Put must be an idempotent no-op when the key exists, and
// Delete a no-op when it doesn't — diskstore provides both.
type CheckpointStore interface {
	Put(h [32]byte, data []byte) error
	Get(h [32]byte) ([]byte, bool, error)
	Delete(h [32]byte) error
}

// Checkpoint is one shard's durable progress record. Positions are
// shard-local: shard s of k owns manifest indices s, s+k, s+2k, …, and
// position p names the (p+1)-th of those. Cursor is the count of leading
// positions fully handled (verified-and-committed or quarantined); Done
// holds positions ≥ Cursor handled out of order. Quarantined lists global
// manifest indices whose files failed deterministically.
type Checkpoint struct {
	ManifestDigest [32]byte
	ManifestLen    uint64
	Shard, Shards  uint32
	Seq            uint64 // increments every save; recovery picks the max
	Cursor         uint64
	Done           []uint64
	Quarantined    []uint64
	FilesDone      uint64 // committed files, cumulative (excludes quarantined)
	BytesIn        uint64 // original bytes of committed files
	BytesOut       uint64 // compressed bytes of committed files
}

const (
	ckptMagic   = "LBK1"
	ckptMaxList = 1 << 22 // sanity cap on decoded slice lengths
)

// ErrManifestMismatch reports a checkpoint that was cut against a different
// manifest (contents, length, or shard count) than the one being resumed.
var ErrManifestMismatch = errors.New("backfill: checkpoint does not match manifest")

// slotKey derives the content-store key for one shard's slot. The key space
// is a fixed prefix hashed with the coordinates, so checkpoints can share a
// store with ordinary chunks without colliding.
func slotKey(shard uint32, slot uint64) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("lepton/backfill/ckpt/%d/%d", shard, slot)))
}

func (c *Checkpoint) encode() []byte {
	buf := make([]byte, 0, 4+32+8+4+4+8+8+8+8+8+4+8*len(c.Done)+4+8*len(c.Quarantined))
	buf = append(buf, ckptMagic...)
	buf = append(buf, c.ManifestDigest[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, c.ManifestLen)
	buf = binary.LittleEndian.AppendUint32(buf, c.Shard)
	buf = binary.LittleEndian.AppendUint32(buf, c.Shards)
	buf = binary.LittleEndian.AppendUint64(buf, c.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, c.Cursor)
	buf = binary.LittleEndian.AppendUint64(buf, c.FilesDone)
	buf = binary.LittleEndian.AppendUint64(buf, c.BytesIn)
	buf = binary.LittleEndian.AppendUint64(buf, c.BytesOut)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Done)))
	for _, p := range c.Done {
		buf = binary.LittleEndian.AppendUint64(buf, p)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Quarantined)))
	for _, p := range c.Quarantined {
		buf = binary.LittleEndian.AppendUint64(buf, p)
	}
	return buf
}

func decodeCheckpoint(data []byte) (Checkpoint, error) {
	var c Checkpoint
	if len(data) < 4+32+8+4+4+8+8+8+8+8+4 || string(data[:4]) != ckptMagic {
		return c, errors.New("backfill: not a checkpoint record")
	}
	data = data[4:]
	copy(c.ManifestDigest[:], data[:32])
	data = data[32:]
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(data); data = data[8:]; return v }
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(data); data = data[4:]; return v }
	c.ManifestLen = u64()
	c.Shard = u32()
	c.Shards = u32()
	c.Seq = u64()
	c.Cursor = u64()
	c.FilesDone = u64()
	c.BytesIn = u64()
	c.BytesOut = u64()
	readList := func(name string) ([]uint64, error) {
		if len(data) < 4 {
			return nil, fmt.Errorf("backfill: checkpoint truncated before %s", name)
		}
		n := u32()
		if n > ckptMaxList || len(data) < int(n)*8 {
			return nil, fmt.Errorf("backfill: checkpoint %s length %d exceeds record", name, n)
		}
		if n == 0 {
			return nil, nil
		}
		out := make([]uint64, n)
		for i := range out {
			out[i] = u64()
		}
		return out, nil
	}
	var err error
	if c.Done, err = readList("done set"); err != nil {
		return c, err
	}
	if c.Quarantined, err = readList("quarantine list"); err != nil {
		return c, err
	}
	if len(data) != 0 {
		return c, fmt.Errorf("backfill: checkpoint has %d trailing bytes", len(data))
	}
	return c, nil
}

// Validate checks that the checkpoint belongs to this manifest and shard
// layout; resuming against anything else silently corrupts progress, so
// mismatches are hard errors.
func (c *Checkpoint) Validate(m Manifest, shards uint32) error {
	if c.ManifestDigest != m.Digest() || c.ManifestLen != uint64(len(m.Entries)) || c.Shards != shards {
		return ErrManifestMismatch
	}
	return nil
}

// SaveCheckpoint durably writes c into its seq-selected slot. The Delete
// clears the slot's previous occupant (seq-2) so the content-addressed Put
// actually lands; the other slot still holds seq-1 if this crashes midway.
func SaveCheckpoint(cs CheckpointStore, c *Checkpoint) error {
	key := slotKey(c.Shard, c.Seq%2)
	if err := cs.Delete(key); err != nil {
		return fmt.Errorf("backfill: clearing checkpoint slot: %w", err)
	}
	if err := cs.Put(key, c.encode()); err != nil {
		return fmt.Errorf("backfill: writing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint recovers shard's latest checkpoint, if any: both slots are
// read, undecodable or mismatched ones are skipped (a torn slot is the
// expected crash artifact, not an error), and the higher sequence wins.
func LoadCheckpoint(cs CheckpointStore, m Manifest, shard, shards uint32) (Checkpoint, bool, error) {
	var best Checkpoint
	found := false
	for slot := uint64(0); slot < 2; slot++ {
		data, ok, err := cs.Get(slotKey(shard, slot))
		if err != nil {
			return Checkpoint{}, false, fmt.Errorf("backfill: reading checkpoint slot %d: %w", slot, err)
		}
		if !ok {
			continue
		}
		c, err := decodeCheckpoint(data)
		if err != nil || c.Shard != shard || c.Validate(m, shards) != nil {
			continue
		}
		if !found || c.Seq > best.Seq {
			best, found = c, true
		}
	}
	return best, found, nil
}
