package metrics

import (
	"encoding/binary"
	"reflect"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 46, 47}, {1 << 47, 47}, {1 << 62, 47},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}

	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != 1206 {
		t.Fatalf("count %d sum %d, want 6 / 1206", s.Count, s.Sum)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("buckets sum to %d, count %d", total, s.Count)
	}
	if s.Mean != 201 {
		t.Fatalf("mean %v, want 201", s.Mean)
	}
	// The median observation is 3 (ranked 1,2,3,100,100,1000 → rank 2),
	// which lives in bucket [2,4): quantile reports the upper edge.
	if q := s.Quantile(0.5); q != 4 {
		t.Fatalf("p50 = %d, want 4", q)
	}
	if q := s.Quantile(1); q != 1024 {
		t.Fatalf("p100 = %d, want 1024", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
}

func TestBalanceCoefficient(t *testing.T) {
	cases := []struct {
		loads []int64
		want  float64
	}{
		{[]int64{4, 4, 4, 4}, 1},
		{[]int64{8, 0, 0, 0}, 0.25},
		{[]int64{0, 0}, 0},
		{nil, 0},
		{[]int64{2, 4}, 0.75},
	}
	for _, c := range cases {
		if got := BalanceCoefficient(c.loads); got != c.want {
			t.Errorf("BalanceCoefficient(%v) = %v, want %v", c.loads, got, c.want)
		}
	}
}

func TestSnapshotReflectsUpdates(t *testing.T) {
	r := NewRegistry(4)
	r.QueriesKNN.Add(3)
	r.PagesRead.Add(100)
	r.PagesPerDisk.Add(0, 25)
	r.PagesPerDisk.Add(2, 25)
	r.PagesPerDisk.Add(-1, 99) // ignored
	r.PagesPerDisk.Add(4, 99)  // ignored
	r.ServiceTimePerDisk.Add(1, 1e6)
	r.QueryPages.Observe(50)

	s := r.Snapshot()
	if s.QueriesKNN != 3 || s.PagesRead != 100 {
		t.Fatalf("snapshot %+v", s)
	}
	if !reflect.DeepEqual(s.PagesPerDisk, []int64{25, 0, 25, 0}) {
		t.Fatalf("pages per disk %v", s.PagesPerDisk)
	}
	if s.Balance != 0.5 {
		t.Fatalf("balance %v, want 0.5", s.Balance)
	}
	if s.QueryPages.Count != 1 || s.QueryPages.Sum != 50 {
		t.Fatalf("query pages histogram %+v", s.QueryPages)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := NewRegistry(3)
	r.QueriesKNN.Add(7)
	r.QueriesRange.Add(2)
	r.QueriesBatch.Inc()
	r.BatchQueries.Add(12)
	r.QueryErrors.Add(1)
	r.DegradedQueries.Add(4)
	r.PagesRead.Add(12345)
	r.CellsVisited.Add(99)
	r.NodeVisits.Add(1024)
	r.Retries.Add(5)
	r.Rerouted.Add(6)
	r.Unreachable.Add(7)
	r.SearchPages.Add(2048)
	r.PagesSavedByBound.Add(512)
	// The retired fifteenth and sixteenth scalars, as a blob written by
	// the old parallel fan-out and by a quantized index holds them:
	// carried like the retired histogram below.
	r.retiredBoundTightenings.Add(33)
	r.PagesPerDisk.Add(0, 10)
	r.PagesPerDisk.Add(2, 30)
	r.ServiceTimePerDisk.Add(1, 5e8)
	r.PagesSavedByRemoteBound.Add(256)
	r.ShardRPCs.Add(60)
	r.ShardRetries.Add(3)
	r.retiredRemoteBoundTightenings.Add(19)
	r.retiredDistCompsSaved.Add(77)
	for i := int64(1); i < 100; i *= 3 {
		r.QueryPages.Observe(i)
		r.QueryTimeNs.Observe(i * 1000)
		r.ShardLatencyNs.Observe(i * 10000)
		// The retired fifth slot, as a blob written while the LSH
		// pre-filter existed holds it: no Snapshot reports it, but the
		// codec must carry it (the byte-identical re-marshal below).
		r.retiredLSHProbePages.Observe(i)
	}

	b, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewRegistry(3)
	if err := fresh.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), fresh.Snapshot()) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", r.Snapshot(), fresh.Snapshot())
	}
	if got, want := fresh.retiredLSHProbePages.Snapshot(), r.retiredLSHProbePages.Snapshot(); !reflect.DeepEqual(got, want) || got.Count == 0 {
		t.Fatalf("retired histogram slot round trip: got %+v, want %+v", got, want)
	}
	if got := fresh.retiredDistCompsSaved.Value(); got != 77 {
		t.Fatalf("retired scalar slot round trip: got %d, want 77", got)
	}
	if got := fresh.retiredBoundTightenings.Value(); got != 33 {
		t.Fatalf("retired scalar slot round trip: got %d, want 33", got)
	}
	if got := fresh.retiredRemoteBoundTightenings.Value(); got != 19 {
		t.Fatalf("retired cluster slot round trip: got %d, want 19", got)
	}

	// A second marshal of the decoded registry is byte-identical.
	b2, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, b2) {
		t.Fatal("re-marshal differs")
	}
}

// TestUnmarshalVersion1 decodes a version-1 encoding (12 scalar
// counters, before the cooperative-pruning counters were appended):
// the prefix decodes one-to-one and the newer counters stay zero.
// Snapshots written by older builds must keep loading.
func TestUnmarshalVersion1(t *testing.T) {
	r := NewRegistry(2)
	r.QueriesKNN.Add(7)
	r.PagesRead.Add(1234)
	r.PagesPerDisk.Add(1, 9)
	r.QueryPages.Observe(42)
	// The newer counters are deliberately non-zero so the splice below
	// proves they are dropped from (not smuggled through) a v1 blob.
	r.SearchPages.Add(555)
	r.PagesSavedByBound.Add(66)
	r.retiredBoundTightenings.Add(7)

	v3, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build the v1 encoding: same header with version 1, the first
	// codecV1Scalars counters, then everything after the scalar block
	// minus the third through fifth histograms (v1 carried only two).
	const header = 12
	const histBlock = 8 + 8 + 4 + HistBuckets*8
	v1 := append([]byte{}, v3[:header+codecV1Scalars*8]...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	tail := v3[header+len(r.scalars())*8 : len(v3)-4*histBlock]
	v1 = append(v1, tail...)

	fresh := NewRegistry(2)
	if err := fresh.UnmarshalBinary(v1); err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	s := fresh.Snapshot()
	if s.QueriesKNN != 7 || s.PagesRead != 1234 || s.PagesPerDisk[1] != 9 {
		t.Fatalf("v1 prefix mismatch: %+v", s)
	}
	if s.SearchPages != 0 || s.PagesSavedByBound != 0 || fresh.retiredBoundTightenings.Value() != 0 {
		t.Fatalf("v1 decode left newer counters non-zero: %+v", s)
	}
	// Re-encoding always writes the current version.
	b2, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(b2[4:]); got != codecVersion {
		t.Fatalf("re-marshal version = %d, want %d", got, codecVersion)
	}

	// A v1 blob that still carries the full scalar block has trailing
	// bytes from the v1 reader's point of view: rejected, not guessed at.
	tooLong := append([]byte{}, v3...)
	binary.LittleEndian.PutUint32(tooLong[4:], 1)
	if err := NewRegistry(2).UnmarshalBinary(tooLong); err == nil {
		t.Fatal("v1 header with v2 payload accepted")
	}
}

// TestUnmarshalVersion2 decodes a version-2 encoding (15 scalars, two
// histograms, before retiredDistCompsSaved and QueryWallNs): the prefix
// decodes one-to-one and the v3 additions stay zero.
func TestUnmarshalVersion2(t *testing.T) {
	r := NewRegistry(2)
	r.QueriesKNN.Add(3)
	r.SearchPages.Add(555)
	r.PagesSavedByBound.Add(66)
	r.retiredBoundTightenings.Add(7)
	r.QueryPages.Observe(42)
	r.QueryTimeNs.Observe(9000)
	// v3-only fields, deliberately non-zero so the splice proves they
	// are dropped from a v2 blob.
	r.retiredDistCompsSaved.Add(123)
	r.QueryWallNs.Observe(5e6)

	v3, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const header = 12
	const histBlock = 8 + 8 + 4 + HistBuckets*8
	v2 := append([]byte{}, v3[:header+codecV2Scalars*8]...)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	v2 = append(v2, v3[header+len(r.scalars())*8:len(v3)-4*histBlock]...)

	fresh := NewRegistry(2)
	if err := fresh.UnmarshalBinary(v2); err != nil {
		t.Fatalf("v2 decode: %v", err)
	}
	s := fresh.Snapshot()
	if s.QueriesKNN != 3 || s.SearchPages != 555 || s.PagesSavedByBound != 66 || fresh.retiredBoundTightenings.Value() != 7 {
		t.Fatalf("v2 prefix mismatch: %+v", s)
	}
	if s.QueryPages.Count != 1 || s.QueryTimeNs.Count != 1 {
		t.Fatalf("v2 histograms lost: %+v", s)
	}
	if fresh.retiredDistCompsSaved.Value() != 0 || s.QueryWallNs.Count != 0 {
		t.Fatalf("v2 decode left v3 fields non-zero: %+v", s)
	}
}

// TestUnmarshalVersion3 decodes a version-3 encoding (16 scalars,
// three histograms, before the durability counters and WALFsyncNs):
// the prefix decodes one-to-one and the v4 additions stay zero.
func TestUnmarshalVersion3(t *testing.T) {
	r := NewRegistry(2)
	r.QueriesKNN.Add(3)
	r.retiredDistCompsSaved.Add(123)
	r.QueryWallNs.Observe(5e6)
	// v4-only fields, deliberately non-zero so the splice proves they
	// are dropped from a v3 blob.
	r.WALAppends.Add(44)
	r.WALBytes.Add(4096)
	r.Recoveries.Add(2)
	r.WALFsyncNs.Observe(7e5)

	v4, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const header = 12
	const histBlock = 8 + 8 + 4 + HistBuckets*8
	v3 := append([]byte{}, v4[:header+codecV3Scalars*8]...)
	binary.LittleEndian.PutUint32(v3[4:], 3)
	v3 = append(v3, v4[header+len(r.scalars())*8:len(v4)-3*histBlock]...)

	fresh := NewRegistry(2)
	if err := fresh.UnmarshalBinary(v3); err != nil {
		t.Fatalf("v3 decode: %v", err)
	}
	s := fresh.Snapshot()
	if s.QueriesKNN != 3 || fresh.retiredDistCompsSaved.Value() != 123 || s.QueryWallNs.Count != 1 {
		t.Fatalf("v3 prefix mismatch: %+v", s)
	}
	// The old blob re-encodes at the current length with the retired
	// slot's value still in place.
	again, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(v4) || binary.LittleEndian.Uint64(again[header+(codecV3Scalars-1)*8:]) != 123 {
		t.Fatalf("v3 blob re-encoded at %d bytes (want %d) or lost its retired counter", len(again), len(v4))
	}
	if s.WALAppends != 0 || s.WALBytes != 0 || s.Recoveries != 0 || s.WALFsyncNs.Count != 0 {
		t.Fatalf("v3 decode left v4 fields non-zero: %+v", s)
	}
}

// TestUnmarshalVersion4 decodes a version-4 encoding (21 scalars, four
// histograms, before the live-mutation counters): the prefix decodes
// one-to-one and the v5 additions stay zero.
func TestUnmarshalVersion4(t *testing.T) {
	r := NewRegistry(2)
	r.QueriesKNN.Add(3)
	r.WALAppends.Add(44)
	r.RecoveredRecords.Add(17)
	r.WALFsyncNs.Observe(7e5)
	// v5-only fields, deliberately non-zero so the splice proves they
	// are dropped from a v4 blob.
	r.IngestBatches.Add(8)
	r.ReorgBuckets.Add(9)
	r.CatchupBytes.Add(1 << 20)

	v5, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const header = 12
	const histBlock = 8 + 8 + 4 + HistBuckets*8
	v4 := append([]byte{}, v5[:header+codecV4Scalars*8]...)
	binary.LittleEndian.PutUint32(v4[4:], 4)
	v4 = append(v4, v5[header+len(r.scalars())*8:len(v5)-2*histBlock]...)

	fresh := NewRegistry(2)
	if err := fresh.UnmarshalBinary(v4); err != nil {
		t.Fatalf("v4 decode: %v", err)
	}
	s := fresh.Snapshot()
	if s.QueriesKNN != 3 || s.WALAppends != 44 || s.RecoveredRecords != 17 || s.WALFsyncNs.Count != 1 {
		t.Fatalf("v4 prefix mismatch: %+v", s)
	}
	if s.IngestBatches != 0 || s.ReorgBuckets != 0 || s.CatchupBytes != 0 {
		t.Fatalf("v4 decode left v5 fields non-zero: %+v", s)
	}
}

// TestUnmarshalVersion5 decodes a version-5 encoding (24 scalars, four
// histograms, before the approximate-tier counters and the since-retired
// LSHProbePages slot):
// the prefix decodes one-to-one and the v6 additions stay zero.
func TestUnmarshalVersion5(t *testing.T) {
	r := NewRegistry(2)
	r.QueriesKNN.Add(3)
	r.IngestBatches.Add(8)
	r.CatchupBytes.Add(1 << 20)
	r.WALFsyncNs.Observe(7e5)
	// v6-only fields, deliberately non-zero so the splice proves they
	// are dropped from a v5 blob.
	r.ApproxQueries.Add(5)
	r.PagesSkippedApprox.Add(77)
	r.retiredLSHProbePages.Observe(12)

	cur, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The v5 splice drops the trailing v6 and v7 histograms (the retired
	// LSHProbePages slot and ShardLatencyNs) along with the post-v5 scalar block.
	const header = 12
	const histBlock = 8 + 8 + 4 + HistBuckets*8
	v5 := append([]byte{}, cur[:header+codecV5Scalars*8]...)
	binary.LittleEndian.PutUint32(v5[4:], 5)
	v5 = append(v5, cur[header+len(r.scalars())*8:len(cur)-2*histBlock]...)

	fresh := NewRegistry(2)
	if err := fresh.UnmarshalBinary(v5); err != nil {
		t.Fatalf("v5 decode: %v", err)
	}
	s := fresh.Snapshot()
	if s.QueriesKNN != 3 || s.IngestBatches != 8 || s.CatchupBytes != 1<<20 || s.WALFsyncNs.Count != 1 {
		t.Fatalf("v5 prefix mismatch: %+v", s)
	}
	if s.ApproxQueries != 0 || s.PagesSkippedApprox != 0 || fresh.retiredLSHProbePages.Snapshot().Count != 0 {
		t.Fatalf("v5 decode left v6 fields non-zero: %+v", s)
	}
	// A current-version round-trip carries the new fields.
	again := NewRegistry(2)
	if err := again.UnmarshalBinary(cur); err != nil {
		t.Fatalf("current decode: %v", err)
	}
	s = again.Snapshot()
	if s.ApproxQueries != 5 || s.PagesSkippedApprox != 77 || again.retiredLSHProbePages.Snapshot().Count != 1 {
		t.Fatalf("round-trip lost approx fields: %+v", s)
	}
}

// TestUnmarshalVersion6 decodes a version-6 encoding (26 scalars, five
// histograms, before the cluster counters): the prefix decodes
// one-to-one and the v7 cluster fields stay zero. Snapshot blobs
// written by pre-cluster builds must keep loading — with a non-zero
// fifth histogram, as an index that ran the since-deleted LSH
// pre-filter wrote it: the retired slot decodes and is carried.
func TestUnmarshalVersion6(t *testing.T) {
	r := NewRegistry(2)
	r.QueriesKNN.Add(9)
	r.ApproxQueries.Add(4)
	r.PagesSkippedApprox.Add(31)
	r.retiredLSHProbePages.Observe(6)
	// v7-only fields, deliberately non-zero so the splice proves they
	// are dropped from a v6 blob.
	r.PagesSavedByRemoteBound.Add(123)
	r.ShardRPCs.Add(45)
	r.ShardRetries.Add(2)
	r.retiredRemoteBoundTightenings.Add(17)
	r.ShardLatencyNs.Observe(3e6)

	v7, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const header = 12
	const histBlock = 8 + 8 + 4 + HistBuckets*8
	v6 := append([]byte{}, v7[:header+codecV6Scalars*8]...)
	binary.LittleEndian.PutUint32(v6[4:], 6)
	v6 = append(v6, v7[header+len(r.scalars())*8:len(v7)-histBlock]...)

	fresh := NewRegistry(2)
	if err := fresh.UnmarshalBinary(v6); err != nil {
		t.Fatalf("v6 decode: %v", err)
	}
	s := fresh.Snapshot()
	if s.QueriesKNN != 9 || s.ApproxQueries != 4 || s.PagesSkippedApprox != 31 || fresh.retiredLSHProbePages.Snapshot().Count != 1 {
		t.Fatalf("v6 prefix mismatch: %+v", s)
	}
	if s.PagesSavedByRemoteBound != 0 || s.ShardRPCs != 0 || s.ShardRetries != 0 ||
		fresh.retiredRemoteBoundTightenings.Value() != 0 || s.ShardLatencyNs.Count != 0 {
		t.Fatalf("v6 decode left cluster fields non-zero: %+v", s)
	}
	// Re-encoding always writes the current version.
	b2, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(b2[4:]); got != codecVersion {
		t.Fatalf("re-marshal version = %d, want %d", got, codecVersion)
	}
	if len(b2) != len(v7) {
		t.Fatalf("v6 blob re-encodes to %d bytes, a v7 blob is %d", len(b2), len(v7))
	}

	// The full v7 round-trip carries the cluster counters and the
	// shard-latency histogram, and re-marshals byte-identically.
	again := NewRegistry(2)
	if err := again.UnmarshalBinary(v7); err != nil {
		t.Fatalf("v7 decode: %v", err)
	}
	s = again.Snapshot()
	if s.PagesSavedByRemoteBound != 123 || s.ShardRPCs != 45 || s.ShardRetries != 2 ||
		again.retiredRemoteBoundTightenings.Value() != 17 || s.ShardLatencyNs.Count != 1 || again.retiredLSHProbePages.Snapshot().Count != 1 {
		t.Fatalf("v7 round-trip lost cluster fields: %+v", s)
	}
	b3, err := again.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v7, b3) {
		t.Fatal("v7 re-marshal differs")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	r := NewRegistry(2)
	r.QueriesKNN.Add(5)
	r.QueryPages.Observe(10)
	good, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	reject := func(name string, b []byte) {
		t.Helper()
		fresh := NewRegistry(2)
		if err := fresh.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: corrupted encoding accepted", name)
		}
	}
	reject("empty", nil)
	reject("truncated", good[:len(good)-3])
	reject("trailing", append(append([]byte{}, good...), 0))

	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF
	reject("magic", bad)

	// Negative counter: flip the sign bit of the first scalar.
	bad = append([]byte{}, good...)
	bad[12+7] |= 0x80
	reject("negative counter", bad)

	// Wrong disk count.
	reject("disk count", func() []byte {
		r3 := NewRegistry(3)
		b, _ := r3.MarshalBinary()
		return b
	}())

	// Histogram bucket/count mismatch: bump the first histogram's count
	// without touching its buckets. The first histogram starts after the
	// 12-byte header, the scalar counters, and two 2-disk arrays.
	histOff := 12 + len(r.scalars())*8 + 2*2*8
	bad = append([]byte{}, good...)
	bad[histOff]++
	reject("histogram mismatch", bad)
}

func TestPerDiskValuesCopy(t *testing.T) {
	p := NewPerDisk(2)
	p.Add(0, 5)
	v := p.Values()
	v[0] = 99
	if got := p.Values()[0]; got != 5 {
		t.Fatalf("Values leaked internal state: %d", got)
	}
}
