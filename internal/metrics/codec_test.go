package metrics

import "testing"

// The version-splice tests cut encodings at these scalar counts.
var (
	codecV1Scalars = codecLayouts[0].scalars
	codecV2Scalars = codecLayouts[1].scalars
	codecV3Scalars = codecLayouts[2].scalars
	codecV4Scalars = codecLayouts[3].scalars
	codecV5Scalars = codecLayouts[4].scalars
	codecV6Scalars = codecLayouts[5].scalars
)

// TestCodecLayoutsMatchRegistry pins the table's two invariants: the
// current version's row is exactly what MarshalBinary writes, and every
// version is a prefix of the next.
func TestCodecLayoutsMatchRegistry(t *testing.T) {
	r := NewRegistry(2)
	last := codecLayouts[len(codecLayouts)-1]
	if last.scalars != len(r.scalars()) || last.hists != len(r.histograms()) {
		t.Errorf("v%d row is %+v, the registry encodes %d scalars and %d histograms",
			codecVersion, last, len(r.scalars()), len(r.histograms()))
	}
	for v := 1; v < len(codecLayouts); v++ {
		if prev, cur := codecLayouts[v-1], codecLayouts[v]; cur.scalars < prev.scalars || cur.hists < prev.hists {
			t.Errorf("v%d row %+v shrinks v%d row %+v", v+1, cur, v, prev)
		}
	}
}
