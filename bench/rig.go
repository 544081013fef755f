package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parsearch"
	"parsearch/client"
	"parsearch/coord"
	"parsearch/server"
)

// request is one operation with its inputs resolved from the pools.
type request struct {
	kind   opKind
	q      []float64   // knn, knn-eps: the query; insert: the point
	qs     [][]float64 // batch
	lo, hi []float64   // range
	pm     partial     // partialmatch
	id     int         // delete
}

func (ds *dataset) request(o op) request {
	r := request{kind: o.kind}
	switch o.kind {
	case opKNN, opKNNEps:
		r.q = ds.query(o.idx)
	case opBatch:
		r.qs = ds.batchOf(o.idx)
	case opRange:
		b := ds.box(o.idx)
		r.lo, r.hi = b[0], b[1]
	case opPartial:
		r.pm = ds.partial(o.idx)
	case opInsert:
		r.q = ds.insertPoint(o.idx)
	}
	return r
}

// answer is what an operation returned.
type answer struct {
	neighbors []parsearch.Neighbor
	batch     [][]parsearch.Neighbor
	id        int // insert: the assigned ID
	reorg     parsearch.ReorgStats
}

// target is what a client drives: the library in process, or a front
// through client.Client.
type target interface {
	do(ctx context.Context, r request) (answer, error)
}

// libTarget calls the index in process. With a tracer it hands each query
// an engine sink and wraps each mutation in a span of its own.
type libTarget struct {
	ix *parsearch.Index
	tr *tracer
}

func (t libTarget) do(ctx context.Context, r request) (a answer, err error) {
	ref, traced := spanOf(ctx)
	traced = traced && t.tr != nil
	if traced {
		switch r.kind {
		case opInsert, opDelete, opCheckpoint, opReorg:
			s := span{Op: ref.op, ID: t.tr.newID(), Parent: ref.id, Name: "engine." + r.kind.String(), Start: t.tr.now()}
			defer func() {
				s.End = t.tr.now()
				t.tr.add(s)
			}()
		default:
			ctx = parsearch.WithTracer(ctx, t.tr.engineSink(ref))
		}
	}
	switch r.kind {
	case opKNN:
		a.neighbors, _, err = t.ix.KNNContext(ctx, r.q, knnK)
	case opKNNEps:
		a.neighbors, _, err = t.ix.KNNApproxContext(ctx, r.q, knnK, parsearch.Approx{Epsilon: epsilon})
	case opRange:
		a.neighbors, _, err = t.ix.RangeQueryContext(ctx, r.lo, r.hi)
	case opPartial:
		a.neighbors, _, err = t.ix.PartialMatchContext(ctx, r.pm.spec, r.pm.eps)
	case opBatch:
		a.batch, _, err = t.ix.BatchKNNContext(ctx, r.qs, knnK)
	case opInsert:
		a.id, err = t.ix.Insert(r.q)
	case opDelete:
		err = t.ix.Delete(r.id)
	case opCheckpoint:
		err = t.ix.Checkpoint()
	case opReorg:
		a.reorg, err = t.ix.ReorganizeStats()
	default:
		err = fmt.Errorf("bench: library target cannot run %v", r.kind)
	}
	return a, err
}

// httpTarget drives a front through the typed client.
type httpTarget struct{ cl *client.Client }

func (t httpTarget) do(ctx context.Context, r request) (a answer, err error) {
	switch r.kind {
	case opKNN:
		a.neighbors, err = t.cl.KNN(ctx, r.q, knnK)
	case opKNNEps:
		a.neighbors, err = t.cl.KNNApprox(ctx, r.q, knnK, parsearch.Approx{Epsilon: epsilon})
	case opRange:
		a.neighbors, err = t.cl.Range(ctx, r.lo, r.hi)
	case opPartial:
		a.neighbors, err = t.cl.PartialMatch(ctx, r.pm.spec, r.pm.eps)
	case opBatch:
		a.batch, err = t.cl.BatchKNN(ctx, r.qs, knnK)
	default:
		err = fmt.Errorf("bench: http target cannot run %v", r.kind)
	}
	return a, err
}

// rig is one deployment, set up and serving.
type rig struct {
	ix     *parsearch.Index
	tgt    target
	fronts []*server.Server
	co     *coord.Coordinator
	dir    string // durable directory, "" otherwise
	// build is the share of the set-up spent in Index.Build.
	build time.Duration
	stop  []func()
}

// close stops every listener and connection of the rig and waits for the
// serving goroutines; a durable index is closed and its directory removed.
func (r *rig) close() {
	for i := len(r.stop) - 1; i >= 0; i-- {
		r.stop[i]()
	}
	r.stop = nil
}

// options are the index options of a workload. A durable index runs with
// WALSync always, the default.
func (s spec) options(dir string, tr *tracer) parsearch.Options {
	o := parsearch.Options{Dim: s.dim, Disks: disks, Packed: true, QuantileSplits: s.quantile}
	if dir != "" {
		o.Durable, o.Dir = true, dir
	}
	if tr != nil {
		o.Tracer = tr.fallback
	}
	return o
}

// setUp brings a workload's deployment up and returns it with the time
// from parsearch.Open to the first successful answer through the target.
// With a tracer, every front and client is wrapped to record spans.
func setUp(ds *dataset, dep deployment, tr *tracer, tmp string) (*rig, time.Duration, error) {
	r := &rig{}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	if dep == deployDurable {
		dir, err := os.MkdirTemp(tmp, "durable-")
		if err != nil {
			return nil, 0, err
		}
		r.dir = dir
		r.stop = append(r.stop, func() { os.RemoveAll(dir) })
	}

	start := time.Now()
	ix, err := parsearch.Open(ds.spec.options(r.dir, tr))
	if err != nil {
		return nil, 0, err
	}
	r.ix = ix
	r.stop = append(r.stop, func() { ix.Close() })
	if err := ix.Build(ds.points); err != nil {
		return nil, 0, err
	}
	r.build = time.Since(start)

	if err := r.deploy(ds, dep, tr); err != nil {
		return nil, 0, err
	}
	if _, err := r.tgt.do(context.Background(), ds.request(op{kind: opKNN})); err != nil {
		return nil, 0, fmt.Errorf("first answer: %w", err)
	}
	ok = true
	return r, time.Since(start), nil
}

// deploy puts the fronts of a deployment over the rig's index and sets the
// target the clients drive.
func (r *rig) deploy(ds *dataset, dep deployment, tr *tracer) error {
	var url string
	var err error
	switch dep {
	case deployLib, deployDurable:
		r.tgt = libTarget{ix: r.ix, tr: tr}
		return nil
	case deployServer:
		url, err = r.front(tr)
	case deployCluster:
		url, err = r.cluster(ds, tr)
	}
	if err != nil {
		return err
	}
	r.tgt = httpTarget{client.New(url, client.WithHTTPClient(r.httpClient(tr, "client.rpc")))}
	return nil
}

// cluster starts three shard fronts and a coordinator front over them, and
// returns the coordinator's URL.
func (r *rig) cluster(ds *dataset, tr *tracer) (string, error) {
	var shards []string
	for i := 0; i < 3; i++ {
		url, err := r.front(tr)
		if err != nil {
			return "", err
		}
		shards = append(shards, url)
	}
	co, err := coord.New(coord.Config{
		Shards: shards, Dim: ds.spec.dim, Disks: disks,
		ClientOptions: []client.Option{client.WithHTTPClient(r.httpClient(tr, "coord.rpc"))},
	})
	if err != nil {
		return "", err
	}
	cs, err := coord.NewServer(co, coord.ServerConfig{})
	if err != nil {
		return "", err
	}
	r.co = co
	h := cs.Handler()
	if tr != nil {
		h = tr.handle("coord.handle", false, h)
	}
	return r.serve(h)
}

// front starts one default-config server front (coalescing on, as
// parsearchd ships) over the rig's index on a loopback listener.
func (r *rig) front(tr *tracer) (string, error) {
	srv, err := server.New(r.ix, server.Config{})
	if err != nil {
		return "", err
	}
	r.fronts = append(r.fronts, srv)
	h := srv.Handler()
	if tr != nil {
		h = tr.handle("server.handle", true, h)
	}
	return r.serve(h)
}

func (r *rig) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	r.stop = append(r.stop, func() {
		hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// httpClient returns an HTTP client with a connection pool of its own,
// recording spans under the given name when traced.
func (r *rig) httpClient(tr *tracer, name string) *http.Client {
	base := &http.Transport{MaxIdleConnsPerHost: 2}
	r.stop = append(r.stop, base.CloseIdleConnections)
	if tr == nil {
		return &http.Client{Transport: base}
	}
	return &http.Client{Transport: &spanTransport{base: base, tr: tr, name: name, sizes: name == "client.rpc"}}
}

// reopen brings the index back from its persisted form, reps times, and
// returns the last index with the median time. A durable rig is abandoned
// without Close — with WALSync always every acknowledged write is already
// on disk — its directory is copied, and the copy is opened: the image a
// kill -9 leaves. Any other rig writes a snapshot (untimed) and loads it,
// which is how parsearchd restarts.
func (r *rig) reopen(ds *dataset, reps int, tmp string) (*parsearch.Index, time.Duration, error) {
	var path string
	if r.dir == "" {
		var err error
		if path, _, err = r.saveSnapshot(tmp); err != nil {
			return nil, 0, err
		}
	}
	var (
		ix    *parsearch.Index
		times []time.Duration
	)
	for i := 0; i < reps; i++ {
		if ix != nil {
			ix.Close()
		}
		var took time.Duration
		var err error
		if r.dir == "" {
			ix, took, err = loadSnapshot(path)
		} else {
			ix, took, err = r.openCopy(ds, tmp)
		}
		if err != nil {
			return nil, 0, err
		}
		times = append(times, took)
	}
	r.stop = append(r.stop, func() { ix.Close() })
	return ix, medianDuration(times), nil
}

// openCopy copies the durable directory as it stands and opens the copy.
func (r *rig) openCopy(ds *dataset, tmp string) (*parsearch.Index, time.Duration, error) {
	dir, err := os.MkdirTemp(tmp, "reopen-")
	if err != nil {
		return nil, 0, err
	}
	r.stop = append(r.stop, func() { os.RemoveAll(dir) })
	if err := copyDir(r.dir, dir); err != nil {
		return nil, 0, err
	}
	runtime.GC() // as loadSnapshot
	start := time.Now()
	ix, err := parsearch.Open(ds.spec.options(dir, nil))
	return ix, time.Since(start), err
}

// saveSnapshot writes the index with Index.Save and returns the file and
// the time the write took.
func (r *rig) saveSnapshot(tmp string) (string, time.Duration, error) {
	f, err := os.CreateTemp(tmp, "snapshot-")
	if err != nil {
		return "", 0, err
	}
	r.stop = append(r.stop, func() { os.Remove(f.Name()) })
	start := time.Now()
	if err := r.ix.Save(f); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	return f.Name(), time.Since(start), nil
}

func loadSnapshot(path string) (*parsearch.Index, time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	runtime.GC() // the load starts from a collected heap, whatever ran before it
	start := time.Now()
	ix, err := parsearch.Load(f)
	return ix, time.Since(start), err
}

func copyDir(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of a directory's files.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
