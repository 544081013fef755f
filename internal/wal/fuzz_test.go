package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to Replay and checks its
// invariants:
//
//   - never panics;
//   - ValidLen is a frame boundary: re-replaying data[:ValidLen]
//     yields the same records with no error and no torn bytes;
//   - err == nil implies ValidLen+TornBytes == len(data) (every byte
//     is accounted for as valid frames or torn tail);
//   - any other error wraps ErrCorrupt.
//
// The committed seed corpus (testdata/fuzz/FuzzWALReplay) covers the
// interesting shapes: a valid multi-record log, a torn final record,
// a flipped CRC byte, and a forged length field.
func FuzzWALReplay(f *testing.F) {
	valid := append(EncodeCheckpoint(1, false), EncodeInsert(0, []float64{1, 2, 3})...)
	valid = append(valid, EncodeDelete(0)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn final record
	flipped := append([]byte{}, valid...)
	flipped[4] ^= 0x80 // CRC byte of the first frame
	f.Add(flipped)
	forged := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(forged, MaxRecordSize+1)
	f.Add(forged)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// The checkpoint-after-reorganize shape: inserts, a sealing
	// checkpoint (as ReorganizeStats writes after a successful pass),
	// then post-reorganize traffic in the same log.
	sealed := append(EncodeInsert(0, []float64{1, 2}), EncodeInsert(1, []float64{3, 4})...)
	sealed = append(sealed, EncodeCheckpoint(2, true)...)
	sealed = append(sealed, EncodeInsert(2, []float64{5, 6})...)
	sealed = append(sealed, EncodeDelete(1)...)
	f.Add(sealed)
	f.Add(sealed[:len(sealed)-3]) // torn tail right after the sealed checkpoint
	// An insert of a NaN point: the log decodes it; recovery refuses it.
	f.Add(append(EncodeCheckpoint(1, false), EncodeInsert(0, []float64{1, math.NaN(), 3})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs [][]byte
		stats, err := Replay(data, func(r Record) error {
			recs = append(recs, reencode(r))
			return nil
		})
		if stats.ValidLen < 0 || stats.ValidLen > int64(len(data)) {
			t.Fatalf("ValidLen %d out of range", stats.ValidLen)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt failure: %v", err)
			}
		} else if stats.ValidLen+stats.TornBytes != int64(len(data)) {
			t.Fatalf("unaccounted bytes: valid %d + torn %d != %d",
				stats.ValidLen, stats.TornBytes, len(data))
		}

		// The valid prefix must replay identically and cleanly.
		var again [][]byte
		stats2, err2 := Replay(data[:stats.ValidLen], func(r Record) error {
			again = append(again, reencode(r))
			return nil
		})
		if err2 != nil || stats2.TornBytes != 0 || stats2.ValidLen != stats.ValidLen {
			t.Fatalf("prefix replay: %+v, %v", stats2, err2)
		}
		if len(again) != len(recs) {
			t.Fatalf("prefix yields %d records, full scan yielded %d", len(again), len(recs))
		}
		for i := range recs {
			if !bytes.Equal(recs[i], again[i]) {
				t.Fatalf("record %d differs between scans", i)
			}
		}
	})
}

// reencode canonicalizes a record for comparison.
func reencode(r Record) []byte {
	switch r.Type {
	case RecInsert:
		return EncodeInsert(r.ID, r.Point)
	case RecDelete:
		return EncodeDelete(r.ID)
	case RecCheckpoint:
		return EncodeCheckpoint(r.Gen, r.Rebase)
	}
	return []byte{r.Type}
}
