package parsearch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"parsearch/internal/core"
	"parsearch/internal/vec"
)

// Snapshot format: a little-endian binary stream holding the index
// options and the raw vectors. Index structures (per-disk X-trees,
// bucket cells, recursive expansions) are derived state and are rebuilt
// deterministically by Build on load, so the snapshot stays small and
// version-independent. A CRC-32 of the payload guards against
// truncation and corruption.
//
// Snapshots written since the observability layer also carry the
// metrics registry (header flag bit 16): a uint32-length-prefixed
// metrics blob (see internal/metrics codec) between the point table
// and the checksum, so cumulative counters survive Save/Load. Readers
// skip the section cleanly when the bit is unset (older snapshots).
const (
	snapshotMagic   = "PARSRCH1"
	snapshotVersion = 1

	flagQuantile    = 1
	flagRecursive   = 2
	flagBaseline    = 4
	flagReplication = 8
	flagMetrics     = 16
	// flagPacked marks a snapshot of a packed index (Options.Packed):
	// its coordinates were rounded to float32 at ingest, so the point
	// table stores 4-byte float32 coordinates — losslessly, and half the
	// size.
	flagPacked = 32
	// flagQuantize is retired: it recorded the removed SQ8 pre-filter
	// option, which never changed the payload or an answer. It is never
	// written, and ignored on read whatever the other bits say, so an old
	// snapshot loads as the plain index it always answered like. The
	// constant stays so the bit is not reused.
	flagQuantize = 64
	// flagMetric marks a snapshot of a non-Euclidean index: a metric
	// string follows the cost-model string. A Euclidean snapshot omits
	// both, so it keeps the bytes it had before the metric was recorded.
	flagMetric = 128
)

// Save writes a snapshot of the index (options and vectors) to w. The
// point table is copied atomically under the metadata lock, so the
// snapshot is a consistent point-in-time view even while concurrent
// inserts and deletes are running — and writing to w happens off the
// lock, so a slow writer never stalls the index.
//
// On a durable index (Options.Durable) Save only exports: it does not
// rotate generations or truncate the mutation log. Checkpoint is the
// durable counterpart.
func (ix *Index) Save(w io.Writer) error {
	ix.meta.Lock()
	points := make([]vec.Point, len(ix.points))
	copy(points, ix.points)
	ix.meta.Unlock()
	return ix.writeSnapshot(w, points)
}

// writeSnapshot encodes the given point-table cut (see Save) to w.
// It reads only immutable options and the lock-free metrics registry,
// so it runs without any index lock — Save and Checkpoint hand it a
// consistent cut and stream off-lock.
func (ix *Index) writeSnapshot(w io.Writer, points []vec.Point) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return fmt.Errorf("parsearch: writing snapshot: %w", err)
	}
	metricsBlob, err := ix.reg.MarshalBinary()
	if err != nil {
		return fmt.Errorf("parsearch: encoding snapshot metrics: %w", err)
	}
	var flags uint8 = flagMetrics
	if ix.opts.QuantileSplits {
		flags |= flagQuantile
	}
	if ix.opts.Recursive {
		flags |= flagRecursive
	}
	if ix.opts.Baseline {
		flags |= flagBaseline
	}
	if ix.opts.Replication > 0 {
		flags |= flagReplication
	}
	if ix.opts.Packed {
		flags |= flagPacked
	}
	if ix.opts.Metric != Euclidean {
		flags |= flagMetric
	}
	header := []interface{}{
		uint32(snapshotVersion),
		uint32(ix.opts.Dim),
		uint32(ix.opts.Disks),
		uint32(ix.opts.PageSize),
		flags,
		int64(ix.params.Seek),
		int64(ix.params.Transfer),
		math.Float64bits(ix.params.Throttle),
	}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("parsearch: writing snapshot header: %w", err)
		}
	}
	if err := writeString(bw, string(ix.opts.Kind)); err != nil {
		return err
	}
	if err := writeString(bw, string(ix.opts.CostModel)); err != nil {
		return err
	}
	if flags&flagMetric != 0 {
		if err := writeString(bw, string(ix.opts.Metric)); err != nil {
			return err
		}
	}

	if err := binary.Write(bw, binary.LittleEndian, uint64(len(points))); err != nil {
		return fmt.Errorf("parsearch: writing snapshot: %w", err)
	}
	// Each slot is a presence byte followed by the coordinates; deleted
	// IDs (tombstones) are a single zero byte, so IDs stay stable across
	// save/load. Packed indexes hold float32-representable coordinates
	// only (rounded at ingest), so the snapshot stores them as 4-byte
	// float32s without loss.
	coordSize := 8
	if ix.opts.Packed {
		coordSize = 4
	}
	buf := make([]byte, coordSize*ix.opts.Dim)
	for _, p := range points {
		if p == nil {
			if err := bw.WriteByte(0); err != nil {
				return fmt.Errorf("parsearch: writing snapshot: %w", err)
			}
			continue
		}
		if err := bw.WriteByte(1); err != nil {
			return fmt.Errorf("parsearch: writing snapshot: %w", err)
		}
		if ix.opts.Packed {
			for j, x := range p {
				binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(float32(x)))
			}
		} else {
			for j, x := range p {
				binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(x))
			}
		}
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("parsearch: writing snapshot: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(metricsBlob))); err != nil {
		return fmt.Errorf("parsearch: writing snapshot metrics: %w", err)
	}
	if _, err := bw.Write(metricsBlob); err != nil {
		return fmt.Errorf("parsearch: writing snapshot metrics: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("parsearch: writing snapshot: %w", err)
	}
	// The checksum covers everything flushed so far.
	if err := binary.Write(w, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("parsearch: writing snapshot checksum: %w", err)
	}
	return nil
}

// snapshotData is a fully decoded and validated snapshot: the options
// to open the index with, the point table (nil entries are
// tombstones), and the metrics blob when present.
type snapshotData struct {
	opts    Options
	points  [][]float64
	metrics []byte
}

// newIndex opens an index from the decoded snapshot.
func (sd *snapshotData) newIndex() (*Index, error) {
	ix, err := Open(sd.opts)
	if err != nil {
		return nil, fmt.Errorf("parsearch: snapshot options invalid: %w", err)
	}
	if err := ix.Build(sd.points); err != nil {
		return nil, fmt.Errorf("parsearch: rebuilding from snapshot: %w", err)
	}
	if sd.metrics != nil {
		if err := ix.reg.UnmarshalBinary(sd.metrics); err != nil {
			return nil, fmt.Errorf("parsearch: snapshot metrics invalid: %w", err)
		}
	}
	return ix, nil
}

// Load reads a snapshot written by Save and returns a fully rebuilt
// index. The whole snapshot is buffered so the checksum can be verified
// before any of it is trusted.
func Load(r io.Reader) (*Index, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("parsearch: reading snapshot: %w", err)
	}
	sd, err := decodeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	return sd.newIndex()
}

// decodeSnapshot validates and parses a complete snapshot: the
// structural parse determines exactly where the payload ends, so the
// footer position is known — not inferred from the file length — and
// any bytes after the 4-byte CRC footer are rejected deterministically
// as trailing garbage (before this refactor, appended bytes were only
// caught probabilistically, by the CRC of the shifted footer failing).
// The payload checksum is verified against the footer before the data
// is returned.
func decodeSnapshot(raw []byte) (*snapshotData, error) {
	sd, consumed, perr := parseSnapshotPayload(raw)
	if perr != nil {
		// The structural parse failed. When the checksum fails too, the
		// snapshot is damaged and the CRC verdict is the honest report
		// (the structural error is a symptom); a passing checksum means
		// the payload itself is malformed.
		if len(raw) >= len(snapshotMagic)+4 {
			body, foot := raw[:len(raw)-4], raw[len(raw)-4:]
			if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(foot) {
				return nil, fmt.Errorf("parsearch: snapshot checksum mismatch (corrupted or truncated)")
			}
		}
		return nil, perr
	}
	rest := len(raw) - consumed
	if rest < 4 {
		return nil, fmt.Errorf("parsearch: snapshot truncated (footer missing)")
	}
	if rest > 4 {
		return nil, fmt.Errorf("parsearch: %d bytes of trailing garbage after snapshot footer", rest-4)
	}
	if crc32.ChecksumIEEE(raw[:consumed]) != binary.LittleEndian.Uint32(raw[consumed:]) {
		return nil, fmt.Errorf("parsearch: snapshot checksum mismatch (corrupted or truncated)")
	}
	return sd, nil
}

// parseSnapshotPayload structurally parses the snapshot payload from
// the start of raw and returns the decoded data plus the number of
// bytes the payload occupies (everything before the CRC footer). Every
// length and count field is bounds-checked against the remaining input
// before it sizes an allocation, so the parse is safe on untrusted
// bytes even before the checksum is verified.
func parseSnapshotPayload(raw []byte) (*snapshotData, int, error) {
	br := bytes.NewReader(raw)

	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, fmt.Errorf("parsearch: reading snapshot: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, 0, fmt.Errorf("parsearch: not a parsearch snapshot (magic %q)", magic)
	}
	var (
		version, dim, disks, pageSize uint32
		flags                         uint8
		seek, transfer                int64
		throttleBits                  uint64
	)
	for _, v := range []interface{}{&version, &dim, &disks, &pageSize, &flags, &seek, &transfer, &throttleBits} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, 0, fmt.Errorf("parsearch: reading snapshot header: %w", err)
		}
	}
	if version != snapshotVersion {
		return nil, 0, fmt.Errorf("parsearch: unsupported snapshot version %d", version)
	}
	kind, err := readString(br)
	if err != nil {
		return nil, 0, err
	}
	costModel, err := readString(br)
	if err != nil {
		return nil, 0, err
	}
	// Absent, the metric is Open's default (Euclidean); an unknown one
	// fails Load in Open's validation.
	var metric string
	if flags&flagMetric != 0 {
		if metric, err = readString(br); err != nil {
			return nil, 0, err
		}
	}

	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, 0, fmt.Errorf("parsearch: reading snapshot: %w", err)
	}
	// Bound every header field that sizes an allocation BEFORE
	// allocating: a forged dim or disk count must fail here, not OOM in
	// make() below (or in Open's registry/array construction).
	if dim == 0 || dim > core.MaxDim || count > (1<<34) {
		return nil, 0, fmt.Errorf("parsearch: implausible snapshot (dim %d, %d points)", dim, count)
	}
	if disks == 0 || disks > (1<<16) {
		return nil, 0, fmt.Errorf("parsearch: implausible snapshot (%d disks)", disks)
	}
	// Every slot needs at least its presence byte, so a forged count
	// larger than the remaining payload cannot be honest — reject it
	// before allocating for it.
	if count > uint64(br.Len()) {
		return nil, 0, fmt.Errorf("parsearch: snapshot claims %d points in %d bytes", count, br.Len())
	}
	packed := flags&flagPacked != 0
	coordSize := 8
	if packed {
		coordSize = 4
	}
	points := make([][]float64, count)
	buf := make([]byte, coordSize*int(dim))
	for i := range points {
		presence, err := br.ReadByte()
		if err != nil {
			return nil, 0, fmt.Errorf("parsearch: reading snapshot point %d: %w", i, err)
		}
		switch presence {
		case 0: // tombstone
		case 1:
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, 0, fmt.Errorf("parsearch: reading snapshot point %d: %w", i, err)
			}
			p := make([]float64, dim)
			if packed {
				// Widening float32 → float64 is exact, so the round trip
				// restores the ingested (pre-rounded) coordinates bit for
				// bit.
				for j := range p {
					p[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:])))
				}
			} else {
				for j := range p {
					p[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
				}
			}
			points[i] = p
		default:
			return nil, 0, fmt.Errorf("parsearch: invalid presence byte %d at point %d", presence, i)
		}
	}
	// The metrics section (flag bit 16) restores the cumulative
	// counters; older snapshots without the bit skip it. The blob is
	// only installed after the rebuilt index exists, and only if it
	// passes the codec's full validation.
	var metricsBlob []byte
	if flags&flagMetrics != 0 {
		var blobLen uint32
		if err := binary.Read(br, binary.LittleEndian, &blobLen); err != nil {
			return nil, 0, fmt.Errorf("parsearch: reading snapshot metrics length: %w", err)
		}
		if uint64(blobLen) > uint64(br.Len()) {
			return nil, 0, fmt.Errorf("parsearch: snapshot metrics section claims %d bytes in %d", blobLen, br.Len())
		}
		metricsBlob = make([]byte, blobLen)
		if _, err := io.ReadFull(br, metricsBlob); err != nil {
			return nil, 0, fmt.Errorf("parsearch: reading snapshot metrics: %w", err)
		}
	}

	params := DiskParams{
		Seek:     time.Duration(seek),
		Transfer: time.Duration(transfer),
		Throttle: math.Float64frombits(throttleBits),
	}
	sd := &snapshotData{
		opts: Options{
			Dim:            int(dim),
			Disks:          int(disks),
			Kind:           Kind(kind),
			PageSize:       int(pageSize),
			QuantileSplits: flags&flagQuantile != 0,
			Recursive:      flags&flagRecursive != 0,
			Baseline:       flags&flagBaseline != 0,
			Replication:    int(flags & flagReplication >> 3),
			Packed:         packed,
			DiskParams:     &params,
			CostModel:      CostModel(costModel),
			Metric:         Metric(metric),
		},
		points:  points,
		metrics: metricsBlob,
	}
	return sd, len(raw) - br.Len(), nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return fmt.Errorf("parsearch: writing snapshot string: %w", err)
	}
	if _, err := io.WriteString(w, s); err != nil {
		return fmt.Errorf("parsearch: writing snapshot string: %w", err)
	}
	return nil
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("parsearch: reading snapshot string: %w", err)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("parsearch: reading snapshot string: %w", err)
	}
	return string(b), nil
}
