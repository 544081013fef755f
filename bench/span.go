package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parsearch"
)

// Tracing of the traced pass. Every span is recorded from this package,
// around a call into a layer's public surface:
//
//	op.<kind>       the client loop, around one call on the target
//	client.rpc      an http.RoundTripper under client.Client (request sent
//	                until response body closed)
//	coord.handle    middleware around the coordinator front's Handler
//	coord.rpc       the RoundTripper under the coordinator's shard clients
//	server.handle   middleware around a server front's Handler
//	engine.<op>     one engine query, rebuilt from the public
//	                parsearch.Tracer events of that query, with children
//	                engine.plan / search / merge / io / record and one
//	                engine.search.disk per disk
//	engine.insert, engine.delete, engine.checkpoint, engine.reorganize
//	                around the in-process mutation calls
//
// The op id and the parent span travel in r.Context() inside a process and
// in two headers across HTTP, so a coordinator's shard RPCs keep their
// parent. Spans stay in memory until the pass ends.

// span is one timed interval. Start and End are nanoseconds since the
// tracer was created.
type span struct {
	Op     uint64 `json:"op"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0     time.Time
	nextID atomic.Uint32
	opSeq  atomic.Uint64

	mu    sync.Mutex
	spans []span

	// Wire sizes seen by the client.rpc transport.
	roundTrips, reqBytes, respBytes atomic.Int64

	// fallback receives engine queries that run outside any request's
	// context: the server's coalesced batches.
	fallback *engineSink
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.fallback = &engineSink{tr: t}
	return t
}

func (t *tracer) now() int64    { return int64(time.Since(t.t0)) }
func (t *tracer) newID() uint32 { return t.nextID.Add(1) }

func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// do runs one operation on the target under a fresh op span. A nil tracer
// runs it bare.
func (t *tracer) do(tgt target, req request) (answer, error) {
	if t == nil {
		return tgt.do(context.Background(), req)
	}
	s := span{Op: t.opSeq.Add(1), ID: t.newID(), Name: "op." + req.kind.String(), Start: t.now()}
	a, err := tgt.do(withSpan(context.Background(), spanRef{op: s.Op, id: s.ID}), req)
	s.End = t.now()
	t.add(s)
	return a, err
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// spanRef names the span that is the parent of whatever the context's
// holder starts next.
type spanRef struct {
	op uint64
	id uint32
}

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanOf(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

const (
	headerOp   = "X-Bench-Op"
	headerSpan = "X-Bench-Span"
)

// spanTransport records one span per HTTP round trip and forwards the
// parent reference in headers.
type spanTransport struct {
	base http.RoundTripper
	tr   *tracer
	name string
	// sizes adds the request and response sizes to the tracer's wire
	// counters (the bench client's transport only).
	sizes bool
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := spanOf(req.Context())
	if !ok {
		return t.base.RoundTrip(req)
	}
	s := span{Op: ref.op, ID: t.tr.newID(), Parent: ref.id, Name: t.name, Attr: req.URL.Path}
	out := req.Clone(req.Context())
	out.Header.Set(headerOp, strconv.FormatUint(ref.op, 10))
	out.Header.Set(headerSpan, strconv.FormatUint(uint64(s.ID), 10))
	s.Start = t.tr.now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		s.End = t.tr.now()
		t.tr.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int64) {
		s.End = t.tr.now()
		t.tr.add(s)
		if t.sizes {
			t.tr.roundTrips.Add(1)
			t.tr.reqBytes.Add(req.ContentLength)
			t.tr.respBytes.Add(n)
		}
	}}
	return resp, nil
}

// spanBody ends the round trip's span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	n    int64
	done func(n int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done(b.n)
		b.done = nil
	}
	return err
}

// handle wraps a front's handler: it records one span per request that
// carries the headers and puts the span (and, for a server front, an engine
// sink) into the request's context.
func (t *tracer) handle(name string, engine bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opID, err1 := strconv.ParseUint(r.Header.Get(headerOp), 10, 64)
		parent, err2 := strconv.ParseUint(r.Header.Get(headerSpan), 10, 32)
		if err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		s := span{Op: opID, ID: t.newID(), Parent: uint32(parent), Name: name, Attr: r.URL.Path}
		ctx := withSpan(r.Context(), spanRef{op: opID, id: s.ID})
		if engine {
			ctx = parsearch.WithTracer(ctx, t.engineSink(spanRef{op: opID, id: s.ID}))
		}
		s.Start = t.now()
		next.ServeHTTP(w, r.WithContext(ctx))
		s.End = t.now()
		t.add(s)
	})
}

// engineSink turns the parsearch.Tracer events of engine queries into
// spans under one parent. The engine reports each stage's end as the time
// elapsed since the query started, so the query's start is the arrival of
// its first event minus that event's Elapsed.
type engineSink struct {
	tr  *tracer
	ref spanRef

	mu   sync.Mutex
	open map[uint64]*engineQuery
}

type engineQuery struct {
	start  int64
	events []parsearch.TraceEvent
}

func (t *tracer) engineSink(ref spanRef) *engineSink {
	return &engineSink{tr: t, ref: ref}
}

func (e *engineSink) Event(ev parsearch.TraceEvent) {
	now := e.tr.now()
	e.mu.Lock()
	q := e.open[ev.Query]
	if q == nil {
		q = &engineQuery{start: now - int64(ev.Elapsed)}
		if e.open == nil {
			e.open = map[uint64]*engineQuery{}
		}
		e.open[ev.Query] = q
	}
	q.events = append(q.events, ev)
	finished := ev.Stage == parsearch.StageDone || ev.Stage == parsearch.StageError
	if finished {
		delete(e.open, ev.Query)
	}
	e.mu.Unlock()
	if finished {
		e.tr.add(e.spansOf(q)...)
	}
}

// spansOf lays one query's events out as spans. The stages run one after
// the other, so each stage span reaches from the previous stage's end to
// its own; the per-disk searches run side by side inside the search stage
// and are all drawn from the end of planning (the engine does not report
// when a disk's search began).
func (e *engineSink) spansOf(q *engineQuery) []span {
	sort.SliceStable(q.events, func(i, j int) bool { return q.events[i].Elapsed < q.events[j].Elapsed })
	last := q.events[len(q.events)-1]
	root := span{Op: e.ref.op, ID: e.tr.newID(), Parent: e.ref.id, Name: "engine." + last.Op,
		Start: q.start, End: q.start + int64(last.Elapsed)}
	out := []span{root}
	stage := func(name string, from, to int64) span {
		s := span{Op: root.Op, ID: e.tr.newID(), Parent: root.ID, Name: name, Start: from, End: to}
		out = append(out, s)
		return s
	}
	cut := q.start
	var searches []parsearch.TraceEvent
	items := 0
	flushSearch := func() {
		if len(searches) == 0 {
			return
		}
		end := q.start + int64(searches[len(searches)-1].Elapsed)
		st := stage("engine.search", cut, end)
		for _, ev := range searches {
			if ev.Item >= 0 {
				items++
				continue
			}
			out = append(out, span{Op: root.Op, ID: e.tr.newID(), Parent: st.ID, Name: "engine.search.disk",
				Attr: strconv.Itoa(ev.Disk), Start: cut, End: q.start + int64(ev.Elapsed)})
		}
		cut, searches = end, nil
	}
	for _, ev := range q.events {
		at := q.start + int64(ev.Elapsed)
		switch ev.Stage {
		case parsearch.StagePlan:
			stage("engine.plan", cut, at)
			cut = at
		case parsearch.StageSearch:
			searches = append(searches, ev)
		case parsearch.StageMerge:
			flushSearch()
			stage("engine.merge", cut, at)
			cut = at
		case parsearch.StageIO:
			flushSearch()
			stage("engine.io", cut, at)
			cut = at
		case parsearch.StageDone:
			flushSearch()
			stage("engine.record", cut, at)
			cut = at
		}
	}
	if items > 0 {
		out[0].Attr = strconv.Itoa(items)
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
