package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	crac "repro"
	"repro/internal/crt"
)

// span is one timed call at a layer boundary, recorded from outside the
// call. IDs start at 1; Parent 0 marks a root (an operation of the
// workload), and Op is the root's ID, shared by every span of one
// operation.
type span struct {
	ID     int32
	Parent int32
	Op     int32
	Name   string
	Start  int64 // ns since the recorder was created
	End    int64
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced runs take the same code path
// with every begin/end a no-op.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent (0: a new operation) and returns its ID.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return 0
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	op := id
	if parent > 0 {
		op = r.spans[parent-1].Op
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	return id
}

func (r *recorder) end(id int32) {
	if r == nil || id == 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// add records an already-timed span.
func (r *recorder) add(name string, parent int32, start, end time.Time) {
	if r == nil {
		return
	}
	id := r.begin(name, parent)
	r.mu.Lock()
	r.spans[id-1].Start = int64(start.Sub(r.t0))
	r.spans[id-1].End = int64(end.Sub(r.t0))
	r.mu.Unlock()
}

// reset drops every span recorded so far. No span may be open.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes one JSON array per span: id, parent, op, name,
// start ns, end ns.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode([]any{s.ID, s.Parent, s.Op, s.Name, s.Start, s.End}); err != nil {
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

// spanIndex answers the queries the per-layer metrics need.
type spanIndex struct {
	spans    []span
	children map[int32][]int32
	byOp     map[int32][]int32
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int32][]int32), byOp: make(map[int32][]int32)}
	for _, s := range spans {
		if s.Parent > 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
		}
		ix.byOp[s.Op] = append(ix.byOp[s.Op], s.ID)
	}
	return ix
}

func (ix *spanIndex) get(id int32) *span { return &ix.spans[id-1] }

// named returns every finished span with the given name.
func (ix *spanIndex) named(name string) []*span {
	var out []*span
	for i := range ix.spans {
		if s := &ix.spans[i]; s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// self is a span's duration minus the part of it its children cover.
func (ix *spanIndex) self(s *span) time.Duration {
	kids := ix.children[s.ID]
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := ix.get(k)
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	covered += curHi - curLo
	return s.dur() - time.Duration(covered)
}

// under returns the finished spans with the given name in operation op.
func (ix *spanIndex) under(op int32, name string) []*span {
	var out []*span
	for _, id := range ix.byOp[op] {
		if s := ix.get(id); s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// ---- Store decorator ----

type spanKey struct{}

// withSpan carries the caller's span through the context the session
// hands to its store, so store spans attach to the operation that
// caused them.
func withSpan(ctx context.Context, id int32) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) int32 {
	id, _ := ctx.Value(spanKey{}).(int32)
	return id
}

// tracedStore records a span per call into the wrapped store. The layer
// prefix names the store's spans ("store" for the backing, "cas" for a
// CASStore). When encode is set the decorator also times the write
// callback the session hands to Put as "dmtcp.encode", with every Write
// into the store's sink as a "<layer>.sink" child, so the encoder's
// self time excludes the sink.
type tracedStore struct {
	inner  crac.Store
	rec    *recorder
	layer  string
	encode bool

	chunkPuts   atomic.Int64 // Puts of names isChunkName accepts
	bytesRead   atomic.Int64
	isChunkName func(string) bool
}

func (t *tracedStore) resetCounters() {
	t.chunkPuts.Store(0)
	t.bytesRead.Store(0)
}

// traceStore wraps inner, forwarding each optional capability only
// when inner has it, so lazy restart and CAS keep their real paths.
func traceStore(inner crac.Store, rec *recorder, layer string, encode bool, isChunk func(string) bool) (crac.Store, *tracedStore) {
	t := &tracedStore{inner: inner, rec: rec, layer: layer, encode: encode, isChunkName: isChunk}
	return withCapabilities(t), t
}

// withCapabilities exposes exactly the optional Store interfaces the
// wrapped store implements.
func withCapabilities(t *tracedStore) crac.Store {
	inner := t.inner
	var mask int
	if _, ok := inner.(crac.RandomAccessStore); ok {
		mask |= 1
	}
	if _, ok := inner.(crac.CountingStore); ok {
		mask |= 2
	}
	if _, ok := inner.(crac.BatchExister); ok {
		mask |= 4
	}
	if _, ok := inner.(crac.SingleImageStore); ok {
		mask |= 8
	}
	ra, cn, be, si := raPart{t}, countPart{t}, batchPart{t}, singlePart{t}
	switch mask {
	case 0:
		return t
	case 1:
		return struct {
			*tracedStore
			raPart
		}{t, ra}
	case 2:
		return struct {
			*tracedStore
			countPart
		}{t, cn}
	case 3:
		return struct {
			*tracedStore
			raPart
			countPart
		}{t, ra, cn}
	case 4:
		return struct {
			*tracedStore
			batchPart
		}{t, be}
	case 5:
		return struct {
			*tracedStore
			raPart
			batchPart
		}{t, ra, be}
	case 6:
		return struct {
			*tracedStore
			countPart
			batchPart
		}{t, cn, be}
	case 7:
		return struct {
			*tracedStore
			raPart
			countPart
			batchPart
		}{t, ra, cn, be}
	case 8:
		return struct {
			*tracedStore
			singlePart
		}{t, si}
	case 9:
		return struct {
			*tracedStore
			raPart
			singlePart
		}{t, ra, si}
	case 10:
		return struct {
			*tracedStore
			countPart
			singlePart
		}{t, cn, si}
	case 11:
		return struct {
			*tracedStore
			raPart
			countPart
			singlePart
		}{t, ra, cn, si}
	case 12:
		return struct {
			*tracedStore
			batchPart
			singlePart
		}{t, be, si}
	case 13:
		return struct {
			*tracedStore
			raPart
			batchPart
			singlePart
		}{t, ra, be, si}
	case 14:
		return struct {
			*tracedStore
			countPart
			batchPart
			singlePart
		}{t, cn, be, si}
	default:
		return struct {
			*tracedStore
			raPart
			countPart
			batchPart
			singlePart
		}{t, ra, cn, be, si}
	}
}

func (t *tracedStore) Put(ctx context.Context, name string, write func(io.Writer) error) error {
	id := t.rec.begin(t.layer+".put", spanOf(ctx))
	defer t.rec.end(id)
	if t.isChunkName != nil && t.isChunkName(name) {
		t.chunkPuts.Add(1)
	}
	return t.inner.Put(withSpan(ctx, id), name, func(w io.Writer) error {
		parent := id
		if t.encode {
			parent = t.rec.begin("dmtcp.encode", id)
			defer t.rec.end(parent)
		}
		return write(&sinkWriter{w: w, rec: t.rec, name: t.layer + ".sink", parent: parent})
	})
}

func (t *tracedStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	id := t.rec.begin(t.layer+".get", spanOf(ctx))
	defer t.rec.end(id)
	rc, err := t.inner.Get(withSpan(ctx, id), name)
	if err != nil {
		return nil, err
	}
	return &tracedReader{rc: rc, t: t, parent: spanOf(ctx)}, nil
}

func (t *tracedStore) List(ctx context.Context) ([]string, error) {
	id := t.rec.begin(t.layer+".list", spanOf(ctx))
	defer t.rec.end(id)
	return t.inner.List(withSpan(ctx, id))
}

func (t *tracedStore) Delete(ctx context.Context, name string) error {
	id := t.rec.begin(t.layer+".delete", spanOf(ctx))
	defer t.rec.end(id)
	return t.inner.Delete(withSpan(ctx, id), name)
}

type raPart struct{ t *tracedStore }

func (p raPart) GetAt(ctx context.Context, name string) (crac.ReaderAtCloser, int64, error) {
	t := p.t
	id := t.rec.begin(t.layer+".getat", spanOf(ctx))
	defer t.rec.end(id)
	ra, n, err := t.inner.(crac.RandomAccessStore).GetAt(withSpan(ctx, id), name)
	if err != nil {
		return nil, 0, err
	}
	return &tracedReaderAt{ra: ra, t: t, parent: spanOf(ctx)}, n, nil
}

type countPart struct{ t *tracedStore }

func (p countPart) Len(ctx context.Context) (int, error) {
	return p.t.inner.(crac.CountingStore).Len(ctx)
}

type batchPart struct{ t *tracedStore }

func (p batchPart) ExistsBatch(ctx context.Context, names []string) (map[string]bool, error) {
	t := p.t
	id := t.rec.begin(t.layer+".exists", spanOf(ctx))
	defer t.rec.end(id)
	return t.inner.(crac.BatchExister).ExistsBatch(withSpan(ctx, id), names)
}

type singlePart struct{ t *tracedStore }

func (p singlePart) SingleImage() bool { return p.t.inner.(crac.SingleImageStore).SingleImage() }

// sinkWriter times every Write into the store's sink.
type sinkWriter struct {
	w      io.Writer
	rec    *recorder
	name   string
	parent int32
}

func (s *sinkWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := s.w.Write(p)
	s.rec.add(s.name, s.parent, start, time.Now())
	return n, err
}

// tracedReader and tracedReaderAt time reads of an image as
// "<layer>.read" spans under the operation that opened it, which for a
// lazy restart includes the background drain.
type tracedReader struct {
	rc     io.ReadCloser
	t      *tracedStore
	parent int32
}

func (r *tracedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.rc.Read(p)
	r.t.rec.add(r.t.layer+".read", r.parent, start, time.Now())
	r.t.bytesRead.Add(int64(n))
	return n, err
}

func (r *tracedReader) Close() error { return r.rc.Close() }

type tracedReaderAt struct {
	ra     crac.ReaderAtCloser
	t      *tracedStore
	parent int32
}

func (r *tracedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := r.ra.ReadAt(p, off)
	r.t.rec.add(r.t.layer+".read", r.parent, start, time.Now())
	r.t.bytesRead.Add(int64(n))
	return n, err
}

func (r *tracedReaderAt) Close() error { return r.ra.Close() }

// ---- Runtime decorator ----

// tracedRuntime records the CUDA calls a workload makes as "cracrt.*"
// spans under the span set with setParent. "cracrt.kernel" runs from
// the first launch after a synchronize to the end of that synchronize:
// launch plus completion. Memsets issued while a checkpoint is in
// flight are recorded as "cracrt.memset.inflight".
type tracedRuntime struct {
	crt.Runtime
	rec      *recorder
	parent   atomic.Int32
	inflight atomic.Bool

	mu          sync.Mutex
	launchStart time.Time
}

func traceRuntime(rt crt.Runtime, rec *recorder) *tracedRuntime {
	return &tracedRuntime{Runtime: rt, rec: rec}
}

func (r *tracedRuntime) setParent(id int32) { r.parent.Store(id) }

func (r *tracedRuntime) timed(name string, f func() error) error {
	start := time.Now()
	err := f()
	r.rec.add(name, r.parent.Load(), start, time.Now())
	return err
}

func (r *tracedRuntime) Malloc(size uint64) (addr uint64, err error) {
	err = r.timed("cracrt.malloc", func() error { addr, err = r.Runtime.Malloc(size); return err })
	return addr, err
}

func (r *tracedRuntime) Free(addr uint64) error {
	return r.timed("cracrt.free", func() error { return r.Runtime.Free(addr) })
}

func (r *tracedRuntime) Memcpy(dst, src, n uint64, kind crt.MemcpyKind) error {
	return r.timed("cracrt.memcpy", func() error { return r.Runtime.Memcpy(dst, src, n, kind) })
}

func (r *tracedRuntime) Memset(addr uint64, value byte, n uint64) error {
	name := "cracrt.memset"
	if r.inflight.Load() {
		name = "cracrt.memset.inflight"
	}
	return r.timed(name, func() error { return r.Runtime.Memset(addr, value, n) })
}

func (r *tracedRuntime) LaunchKernel(h crt.FatBinHandle, name string, cfg crt.LaunchConfig, s crt.StreamHandle, args ...uint64) error {
	start := time.Now()
	r.mu.Lock()
	if r.launchStart.IsZero() {
		r.launchStart = start
	}
	r.mu.Unlock()
	err := r.Runtime.LaunchKernel(h, name, cfg, s, args...)
	r.rec.add("cracrt.launch", r.parent.Load(), start, time.Now())
	return err
}

func (r *tracedRuntime) DeviceSynchronize() error {
	start := time.Now()
	err := r.Runtime.DeviceSynchronize()
	end := time.Now()
	parent := r.parent.Load()
	r.rec.add("cracrt.sync", parent, start, end)
	r.mu.Lock()
	ls := r.launchStart
	r.launchStart = time.Time{}
	r.mu.Unlock()
	if !ls.IsZero() {
		r.rec.add("cracrt.kernel", parent, ls, end)
	}
	return err
}

// spanFile names the span file of one traced run inside the checkout.
func spanFile(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
