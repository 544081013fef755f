// Benchmark harness: one testing.B benchmark per paper figure (and per
// ablation), each wrapping the corresponding experiment from
// internal/exp at a reduced scale so the full suite stays runnable. The
// headline value of each figure is attached as a custom benchmark metric;
// full-scale numbers are produced with cmd/experiments and recorded in
// EXPERIMENTS.md.
package parsearch_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"parsearch"
	"parsearch/internal/data"
	"parsearch/internal/exp"
)

// benchConfig keeps every figure benchmark fast enough for -bench=.
func benchConfig() exp.Config {
	return exp.Config{Scale: 0.25, Queries: 5, Seed: 42}
}

// runExperiment executes the experiment b.N times and reports the given
// series' last y value (typically the 16-disk end of a sweep) as metric.
func runExperiment(b *testing.B, id string, series int, metric string) {
	e, ok := exp.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var last exp.Result
	for i := 0; i < b.N; i++ {
		last = e.Run(benchConfig())
	}
	if series < len(last.Series) && len(last.Series[series].Y) > 0 {
		y := last.Series[series].Y
		b.ReportMetric(y[len(y)-1], metric)
	}
}

func BenchmarkFig01SequentialDegeneration(b *testing.B) {
	runExperiment(b, "fig1", 0, "pages@d16")
}

func BenchmarkFig02RoundRobinSpeedup(b *testing.B) {
	runExperiment(b, "fig2", 0, "speedup@16disks")
}

func BenchmarkFig03HilbertOverRR(b *testing.B) {
	runExperiment(b, "fig3", 0, "factor@16disks")
}

func BenchmarkFig03bHilbertOverRRDataSize(b *testing.B) {
	runExperiment(b, "fig3b", 0, "factor@maxN")
}

func BenchmarkFig05SurfaceProbability(b *testing.B) {
	runExperiment(b, "fig5", 0, "p@d100")
}

func BenchmarkFig07CounterExamples(b *testing.B) {
	runExperiment(b, "fig7", 0, "violations@new")
}

func BenchmarkFig10ColorStaircase(b *testing.B) {
	runExperiment(b, "fig10", 0, "colors@d32")
}

func BenchmarkFig12NewTechniqueSpeedup(b *testing.B) {
	runExperiment(b, "fig12", 0, "speedup@16disks")
}

func BenchmarkFig13FourierSpeedup(b *testing.B) {
	runExperiment(b, "fig13", 0, "newNN@16disks")
}

func BenchmarkFig14ImprovementFactor(b *testing.B) {
	runExperiment(b, "fig14", 0, "factor@16disks")
}

func BenchmarkFig15ScaleUp(b *testing.B) {
	runExperiment(b, "fig15", 0, "ms@16disks")
}

func BenchmarkFig16RecursiveDeclustering(b *testing.B) {
	runExperiment(b, "fig16", 1, "extMS@10nn")
}

func BenchmarkFig17TextData(b *testing.B) {
	runExperiment(b, "fig17", 0, "newMS@10nn")
}

func BenchmarkAblKNNAlgorithms(b *testing.B) {
	runExperiment(b, "abl-knn", 0, "hsPages@d16")
}

func BenchmarkAblIndirectNeighbors(b *testing.B) {
	runExperiment(b, "abl-indirect", 0, "colMax@16disks")
}

func BenchmarkAblFolding(b *testing.B) {
	runExperiment(b, "abl-fold", 0, "collisions@13disks")
}

func BenchmarkAblQuantileSplits(b *testing.B) {
	runExperiment(b, "abl-quantile", 1, "quantMax@10nn")
}

func BenchmarkAblCostModel(b *testing.B) {
	runExperiment(b, "abl-costmodel", 0, "treeMax@RR")
}

func BenchmarkAblSupernodes(b *testing.B) {
	runExperiment(b, "abl-supernode", 0, "pages@d16")
}

// Engine micro-benchmarks: the public API's hot paths.

func benchPoints(n, d int) [][]float64 {
	pts := make([][]float64, n)
	rng := newBenchRand()
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func benchIndex(b *testing.B, kind parsearch.Kind, n, d, disks int) *parsearch.Index {
	b.Helper()
	ix, err := parsearch.Open(parsearch.Options{Dim: d, Disks: disks, Kind: kind})
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Build(benchPoints(n, d)); err != nil {
		b.Fatal(err)
	}
	return ix
}

// buildShapes are the index shapes the build and load rows time: the
// benchmark's lib-scale shape at a fifth of its size, and the float64
// build the suite has always carried. Read them at -cpu 1,2: the per-disk
// bulk loads run on min(GOMAXPROCS, disks) workers.
var buildShapes = []struct {
	name string
	n    int
	opts parsearch.Options
}{
	{"200k-packed", 200_000, parsearch.Options{Dim: 10, Disks: 16}},
	{"64k", 65536, parsearch.Options{Dim: 10, Disks: 16}},
}

func BenchmarkBuild(b *testing.B) {
	for _, shape := range buildShapes {
		b.Run(shape.name, func(b *testing.B) {
			pts := benchPoints(shape.n, shape.opts.Dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := parsearch.Open(shape.opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := ix.Build(pts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(shape.n), "ns/point")
		})
	}
}

// loadShapes are the index shapes the load rows time: the build rows'
// lib-scale shape, and the serve-mixed shape (Fourier descriptors under
// quantile splits), whose load gathers the quantile columns too.
var loadShapes = []struct {
	name   string
	points func() [][]float64
	opts   parsearch.Options
}{
	{"200k-packed", func() [][]float64 { return benchPoints(200_000, 10) }, buildShapes[0].opts},
	{"50k-fourier-quantile", func() [][]float64 { return data.Fourier(50_000, 16, 12, 0.15, 1) },
		parsearch.Options{Dim: 16, Disks: 16, QuantileSplits: true}},
}

// BenchmarkLoad times bringing an index back from its snapshot. as-built
// loads the snapshot of an index unchanged since its build, which
// records the trees: decode them, then stage one. rebuild loads the
// snapshot of the same index after one Insert, which holds the point
// table: decode it, then the same build. Those two read a
// *bytes.Reader; as-built/file reads the as-built snapshot from an
// *os.File, as parsearchd and the lib-scale reopen do.
func BenchmarkLoad(b *testing.B) {
	for _, shape := range loadShapes {
		pts := shape.points()
		for _, c := range []struct {
			name         string
			insert, file bool
		}{{"as-built", false, false}, {"rebuild", true, false}, {"as-built/file", false, true}} {
			b.Run(shape.name+"/"+c.name, func(b *testing.B) {
				ix, err := parsearch.Open(shape.opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := ix.Build(pts); err != nil {
					b.Fatal(err)
				}
				if c.insert {
					if _, err := ix.Insert(make([]float64, shape.opts.Dim)); err != nil {
						b.Fatal(err)
					}
				}
				var snap bytes.Buffer
				if err := ix.Save(&snap); err != nil {
					b.Fatal(err)
				}
				var file *os.File
				if c.file {
					path := filepath.Join(b.TempDir(), "snap")
					if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
						b.Fatal(err)
					}
					if file, err = os.Open(path); err != nil {
						b.Fatal(err)
					}
					defer file.Close()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var r io.Reader = bytes.NewReader(snap.Bytes())
					if file != nil {
						if _, err := file.Seek(0, io.SeekStart); err != nil {
							b.Fatal(err)
						}
						r = file
					}
					if _, err := parsearch.Load(r); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pts)), "ns/point")
			})
		}
	}
}

// BenchmarkSave times writing the version-2 snapshot of an as-built
// index of BenchmarkLoad's 200k shape: fresh-build saves the index Build
// made, loaded the one Load assembled from its snapshot. Both write from
// the leaves' blocks.
func BenchmarkSave(b *testing.B) {
	shape := loadShapes[0]
	built, err := parsearch.Open(shape.opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := built.Build(shape.points()); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := built.Save(&snap); err != nil {
		b.Fatal(err)
	}
	loaded, err := parsearch.Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ix   *parsearch.Index
	}{{"fresh-build", built}, {"loaded", loaded}} {
		b.Run(c.name, func(b *testing.B) {
			var out bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.Reset()
				if err := c.ix.Save(&out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(built.Len()), "ns/point")
		})
	}
}

func BenchmarkKNNQuery(b *testing.B) {
	ix := benchIndex(b, parsearch.NearOptimal, 65536, 10, 16)
	rng := newBenchRand()
	q := make([]float64, 10)
	for j := range q {
		q[j] = rng.Float64()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.KNN(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertDynamic(b *testing.B) {
	ix, err := parsearch.Open(parsearch.Options{Dim: 10, Disks: 16})
	if err != nil {
		b.Fatal(err)
	}
	rng := newBenchRand()
	pts := make([][]float64, b.N)
	for i := range pts {
		p := make([]float64, 10)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Insert(pts[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertLive times an insert into the shape of the live-durable
// workload's index, in process and without a log: 100k points, d = 10,
// 16 disks, quantile splits, 8% of the points in the lowest corner, and
// every insert into that corner (coordinates scaled by 0.3 and rounded
// to float32, as the index stores them).
func BenchmarkInsertLive(b *testing.B) {
	const n, d, cornerShare = 100_000, 10, 8
	toCorner := func(p []float64) {
		for j := range p {
			p[j] = float64(float32(p[j] * 0.3))
		}
	}
	pts := benchPoints(n, d)
	for i, p := range pts {
		if i < n*cornerShare/100 {
			toCorner(p)
		}
		for j := range p {
			p[j] = float64(float32(p[j]))
		}
	}
	ix, err := parsearch.Open(parsearch.Options{Dim: d, Disks: 16, QuantileSplits: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Build(pts); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(100))
	inserts := make([][]float64, b.N)
	for i := range inserts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		toCorner(p)
		inserts[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, p := range inserts {
		if _, err := ix.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
}

// newBenchRand gives benchmarks a fixed-seed source.
func newBenchRand() *rand.Rand { return rand.New(rand.NewSource(99)) }

func BenchmarkExtPartialMatch(b *testing.B) {
	runExperiment(b, "ext-partialmatch", 0, "maxPages@FX")
}

func BenchmarkExtThroughput(b *testing.B) {
	runExperiment(b, "ext-throughput", 0, "qps@RR")
}

func BenchmarkExtQueueing(b *testing.B) {
	runExperiment(b, "ext-queueing", 0, "newRespMS@fullLoad")
}

func BenchmarkAblGreedyColoring(b *testing.B) {
	runExperiment(b, "abl-greedy", 1, "greedyColors@d13")
}

func BenchmarkExtModelValidation(b *testing.B) {
	runExperiment(b, "ext-model", 2, "measPages@d12")
}

func BenchmarkExtHilbert2D(b *testing.B) {
	runExperiment(b, "ext-hilbert2d", 0, "hilRatio@16disks")
}

func BenchmarkAblTreeQuality(b *testing.B) {
	runExperiment(b, "abl-quality", 0, "insOverlap@d16")
}

// --- Observability benchmarks -------------------------------------
//
// The harness workloads (see internal/exp.RunBench and the
// cmd/experiments bench subcommand), wrapped as testing.B benchmarks:
// `go test -bench 'Observability|Traced'` gives the same ns/op view as
// BENCH_parsearch.json, and the Traced/Untraced pair bounds the cost
// of the tracing layer itself.

// benchIndex builds the harness's 16-disk index at reduced scale.
func obsBenchIndex(b *testing.B, opts parsearch.Options, n int) (*parsearch.Index, [][]float64) {
	b.Helper()
	ix, err := parsearch.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := newBenchRand()
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, opts.Dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	if err := ix.Build(pts); err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, 16)
	for i := range queries {
		q := make([]float64, opts.Dim)
		for j := range q {
			q[j] = rng.Float64()
		}
		queries[i] = q
	}
	return ix, queries
}

func benchKNNLoop(b *testing.B, ix *parsearch.Index, queries [][]float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.KNN(queries[i%len(queries)], 10); err != nil {
			b.Fatal(err)
		}
	}
	m := ix.Metrics()
	if m.QueriesKNN > 0 {
		b.ReportMetric(float64(m.PagesRead)/float64(m.QueriesKNN), "pages/query")
		b.ReportMetric(m.Balance, "balance@16disks")
	}
}

func BenchmarkObservabilityKNN16Untraced(b *testing.B) {
	ix, queries := obsBenchIndex(b, parsearch.Options{Dim: 8, Disks: 16}, 4000)
	benchKNNLoop(b, ix, queries)
}

func BenchmarkObservabilityKNN16Traced(b *testing.B) {
	ix, queries := obsBenchIndex(b, parsearch.Options{Dim: 8, Disks: 16}, 4000)
	var events int64
	tr := parsearch.TracerFunc(func(parsearch.TraceEvent) { events++ })
	ctx := parsearch.WithTracer(context.Background(), tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.KNNContext(ctx, queries[i%len(queries)], 10); err != nil {
			b.Fatal(err)
		}
	}
	if events == 0 {
		b.Fatal("tracer saw no events")
	}
}

func BenchmarkObservabilityRange16(b *testing.B) {
	ix, queries := obsBenchIndex(b, parsearch.Options{Dim: 8, Disks: 16}, 4000)
	lo, hi := make([]float64, 8), make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := queries[i%len(queries)]
		for j := range lo {
			lo[j], hi[j] = c[j]-0.2, c[j]+0.2
		}
		if _, _, err := ix.RangeQueryContext(context.Background(), lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNSharedBound measures a k-NN over sixteen disks (see
// DESIGN.md "One queue"): pages/search is what the one queue reads on a
// disk before the global k-th best stops it, savedpages/query what it
// still had queued then.
func BenchmarkKNNSharedBound(b *testing.B) {
	const disks = 16
	ix, queries := obsBenchIndex(b, parsearch.Options{Dim: 8, Disks: disks}, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.KNN(queries[i%len(queries)], 10); err != nil {
			b.Fatal(err)
		}
	}
	m := ix.Metrics()
	if m.QueriesKNN > 0 {
		b.ReportMetric(float64(m.SearchPages)/float64(m.QueriesKNN*disks), "pages/search")
		b.ReportMetric(float64(m.PagesSavedByBound)/float64(m.QueriesKNN), "savedpages/query")
	}
}

func BenchmarkObservabilityBatch16(b *testing.B) {
	ix, queries := obsBenchIndex(b, parsearch.Options{Dim: 8, Disks: 16}, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.BatchKNNContext(context.Background(), queries, 10); err != nil {
			b.Fatal(err)
		}
	}
	m := ix.Metrics()
	b.ReportMetric(float64(m.PagesRead)/float64(m.BatchQueries), "pages/query")
}
