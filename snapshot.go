package parsearch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"parsearch/internal/core"
	"parsearch/internal/xtree"
)

// Snapshot format: a little-endian binary stream holding the index
// options and the data, in one of two versions. A CRC-32 of the payload
// guards against truncation and corruption.
//
// Version 1 holds the raw vectors in an ID-ordered point table. Index
// structures (per-disk X-trees, bucket cells, recursive expansions) are
// derived state and are rebuilt deterministically by Build on load.
//
// Version 2 is written for an index whose trees are still the ones its
// build made (state.asBuilt): Build would make the same trees again from
// the same points, so the snapshot records them and Load assembles them
// instead of bulk-loading. The point table is replaced by one
// uint64-length-prefixed section a tree — primaries, then replicas (by
// hosting disk), then the baseline — each an xtree layout: a preorder
// walk of the nodes, a primary's leaf entries carrying their ID and
// coordinates, a replica's or the baseline's their ID only. The IDs no
// primary holds are the tombstones. Everything else is as in version 1.
//
// Snapshots written since the observability layer also carry the
// metrics registry (header flag bit 16): a uint32-length-prefixed
// metrics blob (see internal/metrics codec) between the point table
// (or the trees) and the checksum, so cumulative counters survive
// Save/Load. Readers skip the section cleanly when the bit is unset
// (older snapshots).
const (
	snapshotMagic = "PARSRCH1"
	// snapshotPoints and snapshotTrees are the two format versions.
	snapshotPoints = 1
	snapshotTrees  = 2

	flagQuantile    = 1
	flagRecursive   = 2
	flagBaseline    = 4
	flagReplication = 8
	flagMetrics     = 16
	// flagPacked marks a snapshot whose coordinates are 4-byte float32s,
	// as the index stores them; every snapshot is written with it. A
	// snapshot without it was written by an index that stored float64:
	// its 8-byte coordinates load rounded to float32, as Insert rounds
	// them, and a version-2 one's trees are read for their points only,
	// which Load then rebuilds.
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
// point table — and, while the index is as built, its trees — are taken
// atomically under the metadata lock, so the snapshot is a consistent
// point-in-time view even while concurrent inserts and deletes are
// running — and writing to w happens off the lock, so a slow writer
// never stalls the index.
//
// On a durable index (Options.Durable) Save only exports: it does not
// rotate generations or truncate the mutation log. Checkpoint is the
// durable counterpart.
func (ix *Index) Save(w io.Writer) error {
	ix.meta.Lock()
	tbl, trees := ix.cut()
	ix.meta.Unlock()
	return ix.writeSnapshot(w, tbl, trees)
}

// cut takes a cut of the point table (see pointTable.cut) and, while the
// index is as built, returns the published version, whose trees are
// those of the same instant and never change. Caller holds meta.
func (ix *Index) cut() (*pointTable, *version) {
	tbl := ix.tbl.cut()
	if !ix.st.asBuilt {
		return tbl, nil
	}
	return tbl, ix.pub.Load()
}

// writeSnapshot encodes the given cut (see Save) to w: the trees as
// version 2 when trees is set, and when the layout bounds the ID space
// (see snapshotTrees), else the point table as version 1.
// It reads only immutable options, the trees of a version and the
// lock-free metrics registry, so it runs without any index lock — Save
// and Checkpoint hand it a consistent cut and stream off-lock.
func (ix *Index) writeSnapshot(w io.Writer, tbl *pointTable, trees *version) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return fmt.Errorf("parsearch: writing snapshot: %w", err)
	}
	metricsBlob, err := ix.reg.MarshalBinary()
	if err != nil {
		return fmt.Errorf("parsearch: encoding snapshot metrics: %w", err)
	}
	var flags uint8 = flagMetrics | flagPacked
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
	if ix.opts.Metric != Euclidean {
		flags |= flagMetric
	}
	format := uint32(snapshotPoints)
	if trees != nil && uint64(tbl.len()) <= math.MaxUint32 {
		// A reader bounds the ID space by the bytes left (tombstones
		// cost none), so the trees are written only when their primary
		// entries alone are at least that many bytes.
		if tbl.len() <= tbl.live()*(4+4*ix.opts.Dim) {
			format = snapshotTrees
		}
	}
	header := []interface{}{
		format,
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

	if err := binary.Write(bw, binary.LittleEndian, uint64(tbl.len())); err != nil {
		return fmt.Errorf("parsearch: writing snapshot: %w", err)
	}
	if format == snapshotTrees {
		if err := writeTrees(bw, trees); err != nil {
			return fmt.Errorf("parsearch: writing snapshot: %w", err)
		}
	} else if err := writePoints(bw, tbl); err != nil {
		return fmt.Errorf("parsearch: writing snapshot: %w", err)
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

// writePoints writes the version-1 point table. Each slot is a presence
// byte followed by the coordinates; deleted IDs (tombstones) are a
// single zero byte, so IDs stay stable across save/load. The coordinates
// are 4-byte float32s, as the table holds them.
func writePoints(bw *bufio.Writer, tbl *pointTable) error {
	var buf []byte
	for id, dead := range tbl.dead {
		if dead {
			if err := bw.WriteByte(0); err != nil {
				return err
			}
			continue
		}
		buf = append(buf[:0], 1)
		for _, x := range tbl.f32[id*tbl.dim : (id+1)*tbl.dim] {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// writeTrees writes the version-2 tree sections: primaries with their
// points, read from the leaves' blocks, then replicas and the baseline
// with IDs only.
func writeTrees(bw *bufio.Writer, v *version) error {
	var buf []byte
	section := func(t *xtree.Tree, points bool) error {
		buf = t.AppendLayout(buf[:0], points)
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(buf))); err != nil {
			return err
		}
		_, err := bw.Write(buf)
		return err
	}
	for _, t := range v.shards {
		if err := section(t, true); err != nil {
			return err
		}
	}
	for _, t := range v.replicas {
		if err := section(t, false); err != nil {
			return err
		}
	}
	if v.baseline != nil {
		return section(v.baseline, false)
	}
	return nil
}

// snapshotData is a fully decoded and validated snapshot: the options
// to open the index with, the point table of version 1 or the trees of
// version 2, and the metrics blob when present.
type snapshotData struct {
	opts    Options
	table   *pointTable
	trees   *treeLayout
	metrics []byte
}

// treeLayout is what a version-2 snapshot records of an as-built index:
// the size of its ID space, one xtree layout a tree, in the order
// primaries, replicas, baseline, and the bytes of a primary's
// coordinates (see flagPacked). The sections alias the snapshot's bytes.
type treeLayout struct {
	ids      int
	sections [][]byte
	coord    int
}

// newIndex opens an index from the decoded snapshot: it assembles the
// recorded trees of version 2, and builds from the point table of
// version 1.
func (sd *snapshotData) newIndex() (*Index, error) {
	ix, err := Open(sd.opts)
	if err != nil {
		return nil, fmt.Errorf("parsearch: snapshot options invalid: %w", err)
	}
	if sd.trees != nil {
		st, tbl, live, err := ix.assembleState(sd.trees)
		if err != nil {
			return nil, fmt.Errorf("parsearch: assembling from snapshot: %w", err)
		}
		if err := ix.cutOver(st, tbl, live); err != nil {
			return nil, err
		}
	} else if err := ix.build(sd.table); err != nil {
		return nil, fmt.Errorf("parsearch: rebuilding from snapshot: %w", err)
	}
	if sd.metrics != nil {
		if err := ix.reg.UnmarshalBinary(sd.metrics); err != nil {
			return nil, fmt.Errorf("parsearch: snapshot metrics invalid: %w", err)
		}
	}
	return ix, nil
}

// Load reads a snapshot written by Save and returns the index it holds: a
// version-2 snapshot's recorded trees assembled as they were built, a
// version-1 snapshot's point table rebuilt (see "Snapshot format"). The
// whole snapshot is buffered so the checksum can be verified before any
// of it is trusted. The buffer is allocated once when r knows how many
// bytes it has left — a regular *os.File (its size less its offset), a
// *bytes.Reader or a *bytes.Buffer — and grows as io.ReadAll's does past
// that hint or without one; the read always runs to EOF.
func Load(r io.Reader) (*Index, error) {
	raw, err := readSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("parsearch: reading snapshot: %w", err)
	}
	sd, err := decodeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	return sd.newIndex()
}

// readSnapshot reads r to EOF into one buffer of the size r hints (see
// Load), plus bytes.MinRead so that the read which meets EOF needs no
// growth. A short or missing hint grows the buffer as io.ReadAll does.
func readSnapshot(r io.Reader) ([]byte, error) {
	hint := 0
	switch src := r.(type) {
	case *os.File:
		if fi, err := src.Stat(); err == nil && fi.Mode().IsRegular() {
			if at, err := src.Seek(0, io.SeekCurrent); err == nil && at < fi.Size() {
				hint = int(fi.Size() - at)
			}
		}
	case *bytes.Reader:
		hint = src.Len()
	case *bytes.Buffer:
		hint = src.Len()
	}
	// io.ReadAll's loop, from a sized buffer. (A bytes.Buffer would be
	// one more allocation under the race detector.)
	b := make([]byte, 0, hint+bytes.MinRead)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
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
	if version != snapshotPoints && version != snapshotTrees {
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
	// Every slot needs at least its presence byte, and a version-2 writer
	// records its trees only when their entries outweigh the ID space, so
	// a forged count larger than the remaining payload cannot be honest —
	// reject it before allocating for it.
	if count > uint64(br.Len()) {
		return nil, 0, fmt.Errorf("parsearch: snapshot claims %d points in %d bytes", count, br.Len())
	}
	coord := 8
	if flags&flagPacked != 0 {
		coord = 4
	}
	var (
		table *pointTable
		trees *treeLayout
	)
	if version == snapshotTrees {
		trees, err = parseTrees(raw, br, int(count), int(disks), flags, coord)
	} else {
		table, err = parsePoints(br, int(count), int(dim), coord)
	}
	if err != nil {
		return nil, 0, err
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
			DiskParams:     &params,
			CostModel:      CostModel(costModel),
			Metric:         Metric(metric),
		},
		table:   table,
		trees:   trees,
		metrics: metricsBlob,
	}
	if trees != nil && coord == 8 {
		// Float64 trees, rounded, are not the trees Build makes of the
		// rounded points: keep their points only.
		opts, err := checkOptions(sd.opts)
		if err != nil {
			return nil, 0, fmt.Errorf("parsearch: snapshot options invalid: %w", err)
		}
		if _, sd.table, _, err = (&Index{opts: opts}).readPrimaries(trees); err != nil {
			return nil, 0, fmt.Errorf("parsearch: reading float64 trees: %w", err)
		}
		sd.trees = nil
	}
	return sd, len(raw) - br.Len(), nil
}

// parsePoints reads a version-1 point table of count slots, whose
// coordinates are coord bytes each (see flagPacked).
func parsePoints(br *bytes.Reader, count, dim, coord int) (*pointTable, error) {
	// Sized by the points the bytes left can hold, not by the claim.
	t := newTable(dim, min(count, br.Len()/(1+coord*dim)))
	buf := make([]byte, coord*dim)
	row := make([]float32, dim)
	for i := 0; i < count; i++ {
		presence, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("parsearch: reading snapshot point %d: %w", i, err)
		}
		switch presence {
		case 0: // tombstone
			t.addDead(1)
		case 1:
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("parsearch: reading snapshot point %d: %w", i, err)
			}
			if coord == 4 {
				for j := range row {
					row[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
				}
			} else {
				// Rounded as Insert rounds; the build refuses what
				// rounds to an infinity.
				for j := range row {
					row[j] = float32(math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:])))
				}
			}
			t.addRow(row)
		default:
			return nil, fmt.Errorf("parsearch: invalid presence byte %d at point %d", presence, i)
		}
	}
	return t, nil
}

// parseTrees reads the version-2 tree sections: one a disk, one more a
// disk when the flags say replicated, one more for a baseline. Each is
// sliced out of raw, not copied; ReadLayout checks its contents when the
// index is assembled.
func parseTrees(raw []byte, br *bytes.Reader, ids, disks int, flags uint8, coord int) (*treeLayout, error) {
	n := disks
	if flags&flagReplication != 0 {
		n += disks
	}
	if flags&flagBaseline != 0 {
		n++
	}
	if uint64(n)*8 > uint64(br.Len()) {
		return nil, fmt.Errorf("parsearch: snapshot claims %d tree sections in %d bytes", n, br.Len())
	}
	tl := &treeLayout{ids: ids, sections: make([][]byte, n), coord: coord}
	for i := range tl.sections {
		var size uint64
		if err := binary.Read(br, binary.LittleEndian, &size); err != nil {
			return nil, fmt.Errorf("parsearch: reading snapshot tree %d: %w", i, err)
		}
		if size > uint64(br.Len()) {
			return nil, fmt.Errorf("parsearch: snapshot tree %d claims %d bytes in %d", i, size, br.Len())
		}
		at := len(raw) - br.Len()
		tl.sections[i] = raw[at : at+int(size) : at+int(size)]
		if _, err := br.Seek(int64(size), io.SeekCurrent); err != nil {
			return nil, err
		}
	}
	return tl, nil
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
