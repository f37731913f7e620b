package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	crac "repro"
	"repro/internal/cas"
	"repro/internal/crt"
	"repro/internal/kernels"
)

// app is the application side of one session: the runtime it programs
// against (traced or not), its kernels and its checked buffers.
type app struct {
	s     *crac.Session
	rt    crt.Runtime
	trt   *tracedRuntime // nil when untraced
	fat   crt.FatBinHandle
	bufs  []buffer // state checked after every restart
	probe uint64   // the first kernel after a restart writes here; unchecked
}

// newApp launches a session (timed as "session.new") and registers the
// kernel library. The workloads give sessions one pipeline worker
// (WithWorkers(1), the serial reference path): with the default of one
// per CPU, a neighbour taking one of the two CPUs slowed delta-cow's
// checkpoints by half; with one worker, by a few percent.
func newApp(e *env, p *phase, opts ...crac.Option) (*app, error) {
	start := time.Now()
	s, err := crac.New(opts...)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	e.rec.add("session.new", 0, start, end)
	p.newMs.add(end.Sub(start))
	a := &app{s: s}
	if err := a.bind(e, s.Runtime()); err != nil {
		s.Close()
		return nil, err
	}
	return a, nil
}

// bind wraps rt for tracing and registers the kernel library on it.
func (a *app) bind(e *env, rt crt.Runtime) error {
	a.rt = rt
	if e.rec != nil {
		a.trt = traceRuntime(rt, e.rec)
		a.rt = a.trt
	}
	fat, err := a.rt.RegisterFatBinary(kernels.Module)
	if err != nil {
		return err
	}
	// Registration order lands in the call log, and so in the image:
	// keep it fixed.
	table := kernels.Table()
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := a.rt.RegisterFunction(fat, name, table[name]); err != nil {
			return err
		}
	}
	a.fat = fat
	return nil
}

// setParent attaches the runtime's next spans to the given span.
func (a *app) setParent(id int32) {
	if a.trt != nil {
		a.trt.setParent(id)
	}
}

func (a *app) setInflight(v bool) {
	if a.trt != nil {
		a.trt.inflight.Store(v)
	}
}

// alloc makes a device (or, with pinned, a cudaHostAlloc) buffer and
// adds it to the checked state.
func (a *app) alloc(size uint64, pinned bool) (uint64, error) {
	var addr uint64
	var err error
	if pinned {
		addr, err = a.rt.HostAlloc(size)
	} else {
		addr, err = a.rt.Malloc(size)
	}
	if err != nil {
		return 0, err
	}
	a.bufs = append(a.bufs, buffer{addr: addr, size: size})
	return addr, nil
}

// launch runs a kernel over n float32 elements at addr.
func (a *app) launch(kernel string, addr uint64, value float32, n int) error {
	lc := crt.LaunchConfig{Grid: crt.Dim3{X: (n + 255) / 256}, Block: crt.Dim3{X: 256}}
	return a.rt.LaunchKernel(a.fat, kernel, lc, crt.DefaultStream, addr, kernels.F32Arg(value), uint64(n))
}

// firstKernel is the kernel a restarted application launches first:
// one fill of the probe buffer, synchronized.
func (a *app) firstKernel(size uint64) error {
	if err := a.launch("fill", a.probe, 3, int(size/4)); err != nil {
		return err
	}
	return a.rt.DeviceSynchronize()
}

// verify compares the session's state with the CRCs taken at the cut.
func (a *app) verify(want []uint32, scratch []byte) error {
	got, err := stateCRC(a.s.Space(), a.bufs, scratch)
	if err != nil {
		return fmt.Errorf("reading restored state: %w", err)
	}
	if !equalCRC(got, want) {
		return fmt.Errorf("restored state differs from the cut: crc %08x, want %08x", got, want)
	}
	return nil
}

// imageSize is the stored size of one image, read outside timed windows.
func imageSize(ctx context.Context, mem *crac.MemStore, name string) (int64, error) {
	r, n, err := mem.GetAt(ctx, name)
	if err != nil {
		return 0, err
	}
	return n, r.Close()
}

// storeBytes is the total size of every entry the store holds.
func storeBytes(ctx context.Context, mem *crac.MemStore) (int64, error) {
	names, err := mem.List(ctx)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		sz, err := imageSize(ctx, mem, n)
		if err != nil {
			return 0, err
		}
		total += sz
	}
	return total, nil
}

// logEntries reads the image's call-log length, outside timed windows.
func logEntries(ctx context.Context, store crac.Store, name string) (int, error) {
	img, err := crac.OpenImageFrom(ctx, store, name)
	if err != nil {
		return 0, err
	}
	lg, err := img.Log()
	if err != nil || lg == nil {
		return 0, fmt.Errorf("image %q has no call log: %v", name, err)
	}
	return lg.Entries, nil
}

// wrapStores layers the optional fault wrapper and the tracing
// decorators over an in-memory store.
func wrapStores(e *env, p *phase, mem *crac.MemStore, withCAS bool) crac.Store {
	var st crac.Store = mem
	if e.wrapStore != nil {
		st = e.wrapStore(st)
	}
	if e.rec != nil {
		var t *tracedStore
		st, t = traceStore(st, e.rec, "store", !withCAS, cas.IsChunkName)
		p.stores = append(p.stores, t)
	}
	if withCAS {
		st = crac.NewCASStore(st)
		if e.rec != nil {
			var t *tracedStore
			st, t = traceStore(st, e.rec, "cas", true, nil)
			p.stores = append(p.stores, t)
		}
	}
	return st
}
