package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	crac "repro"
)

// delta-cow is the sparse-update periodic checkpointer: 32 MiB of
// device and pinned state, of which each step dirties ≈3% (one kernel
// over dcKernelBytes of a device buffer, one memset of dcMemsetBytes of
// a pinned buffer). Every dcCutEvery steps a concurrent, incremental
// CheckpointAsync arms a copy-on-write cut while the application keeps
// stepping; a second client goroutine waits for the commit. When the
// chain tip reaches depth dcDepth, the application computes dcCutEvery
// more steps (untimed) while the tip is in flight, so the live state
// moves away from the cut; then, once the tip has committed, a lazy
// RestartAsync of the tip runs, then one kernel, then Wait for the
// drain, and the restored state must equal the cut, not the live one.
// The restart starts a new chain, so every cycle is a base plus dcDepth
// deltas; the first cycle is the census.
const (
	dcDevBufs     = 12
	dcPinBufs     = 4
	dcBufSize     = 2 << 20
	dcProbeSize   = 64 << 10
	dcKernelBytes = 1 << 19
	dcMemsetBytes = 1 << 19
	dcShardSize   = 256 << 10
	dcCutEvery    = 4
	dcDepth       = 8
)

type deltaCow struct {
	e       *env
	a       *app
	mem     *crac.MemStore
	store   crac.Store
	dev     []uint64
	pin     []uint64
	rng     *rand.Rand
	scratch []byte

	// The buffers the steps between two cuts dirty, in order.
	devOrder, pinOrder []int
	n                  int // the current cycle
}

// cut is one checkpoint in flight: the waiter goroutine reports its
// commit on done.
type cut struct {
	name string
	done chan cutResult
}

type cutResult struct {
	st  crac.Stats
	err error
	d   time.Duration // arm to Wait returning
}

func (w *deltaCow) setup(e *env, p *phase) error {
	w.e = e
	w.rng = rand.New(rand.NewSource(e.seed*1000003 + 7))
	w.scratch = make([]byte, dcBufSize)
	w.mem = crac.NewMemStore()
	w.store = wrapStores(e, p, w.mem, false)
	a, err := newApp(e, p,
		crac.WithWorkers(1),
		crac.WithConcurrentCheckpoint(),
		crac.WithIncremental(dcDepth),
		crac.WithShardSize(dcShardSize))
	if err != nil {
		return err
	}
	w.a = a
	for i := 0; i < dcDevBufs; i++ {
		d, err := a.alloc(dcBufSize, false)
		if err != nil {
			return err
		}
		if err := a.launch("iota", d, float32(i)+w.rng.Float32(), dcBufSize/4); err != nil {
			return err
		}
		w.dev = append(w.dev, d)
	}
	for i := 0; i < dcPinBufs; i++ {
		h, err := a.alloc(dcBufSize, true)
		if err != nil {
			return err
		}
		if err := a.rt.Memset(h, byte(w.rng.Intn(256)), dcBufSize); err != nil {
			return err
		}
		w.pin = append(w.pin, h)
	}
	if a.probe, err = a.rt.Malloc(dcProbeSize); err != nil {
		return err
	}
	return a.rt.DeviceSynchronize()
}

// compute is one application step: a kernel over a seeded quarter of
// a device buffer, synchronized, and a memset of a seeded quarter of a
// pinned buffer. The steps between two cuts touch distinct buffers, so
// every delta carries the same number of bytes whatever the seed.
func (w *deltaCow) compute(i int) error {
	if i == 0 {
		w.devOrder = w.rng.Perm(dcDevBufs)
		w.pinOrder = w.rng.Perm(dcPinBufs)
	}
	d := w.dev[w.devOrder[i]] + uint64(w.rng.Intn(dcBufSize/dcKernelBytes))*dcKernelBytes
	if err := w.a.launch("iota", d, w.rng.Float32()+0.5, dcKernelBytes/4); err != nil {
		return err
	}
	if err := w.a.rt.DeviceSynchronize(); err != nil {
		return err
	}
	h := w.pin[w.pinOrder[i]] + uint64(w.rng.Intn(dcBufSize/dcMemsetBytes))*dcMemsetBytes
	return w.a.rt.Memset(h, byte(w.rng.Intn(255)+1), dcMemsetBytes)
}

func (w *deltaCow) census(ctx context.Context, p *phase) error {
	return w.cycle(ctx, p, true)
}

func (w *deltaCow) run(ctx context.Context, p *phase, deadline time.Time) error {
	for time.Now().Before(deadline) && p.err() == nil {
		if err := w.cycle(ctx, p, false); err != nil {
			return err
		}
	}
	return nil
}

// cycle runs one chain: a base and dcDepth deltas, each after
// dcCutEvery steps, then the lazy restart of the tip. The census cycle
// records the deterministic counters. An operation that fails is
// counted in p and ends the cycle.
func (w *deltaCow) cycle(ctx context.Context, p *phase, census bool) error {
	var inflight *cut
	defer func() {
		if inflight != nil {
			<-inflight.done
			w.a.setInflight(false)
		}
	}()
	w.n++
	var stored int64
	var ckpts, steps int
	calls0 := w.a.rt.Counters().TotalCUDACalls()
	var tipCRC []uint32
	var names []string
	var err error
	for depth := 0; depth <= dcDepth; depth++ {
		for i := 0; i < dcCutEvery; i++ {
			name := fmt.Sprintf("c%d-d%d", w.n, depth)
			inflight, err = w.step(ctx, p, inflight, i, name)
			steps++
			if err != nil {
				p.fail(err)
				return nil
			}
		}
		names = append(names, inflight.name)
	}
	calls := w.a.rt.Counters().TotalCUDACalls() - calls0
	// The cut the restart will return to; nothing has run since it was
	// armed. The application then writes on while the tip is in flight,
	// so a cut that let those writes through restores the wrong bytes.
	if tipCRC, err = stateCRC(w.a.s.Space(), w.a.bufs, w.scratch); err != nil {
		return err
	}
	for i := 0; i < dcCutEvery; i++ {
		if err := w.writeBehind(p, i); err != nil {
			p.fail(err)
			return nil
		}
	}
	var live [][]byte
	if w.e.liveAtRestart {
		if live, err = readState(w.a.s.Space(), w.a.bufs); err != nil {
			return err
		}
	}
	// Let the tip commit (the application stepping on would start the
	// next chain), then restart from it.
	res := <-inflight.done
	tip := inflight.name
	inflight = nil
	w.a.setInflight(false)
	if err := w.committed(p, res, tip); err != nil {
		p.fail(err)
		return nil
	}
	if census {
		for _, n := range names {
			sz, err := imageSize(ctx, w.mem, n)
			if err != nil {
				return err
			}
			stored += sz
			ckpts++
		}
		p.det = det{
			StoredMiBPerCkpt: float64(stored) / float64(ckpts) / (1 << 20),
			ShardsWritten:    p.shards.mean(),
			CallsPerStep:     float64(calls) / float64(steps),
		}
	}
	if err := w.restart(ctx, p, tip, tipCRC, live); err != nil {
		p.fail(err)
		return nil
	}
	if census {
		entries, err := logEntries(ctx, w.mem, tip)
		if err != nil {
			p.fail(err)
			return nil
		}
		p.det.EntriesPerRestart = float64(entries)
	}
	for _, n := range names {
		if err := w.mem.Delete(ctx, n); err != nil {
			return err
		}
	}
	// The restart discarded the old process's address space, which a
	// real restart frees with the process: collect it, and the deleted
	// chain, outside the timed windows.
	runtime.GC()
	return nil
}

// step runs step i of the dcCutEvery between two cuts. The last one
// ends by arming the next cut under name, first waiting for the
// previous one to commit; both the wait and the arming pause count in
// the step's time.
func (w *deltaCow) step(ctx context.Context, p *phase, inflight *cut, i int, name string) (*cut, error) {
	arm := i == dcCutEvery-1
	rec := w.e.rec
	sp := rec.begin("step", 0)
	defer rec.end(sp)
	w.a.setParent(sp)
	p.attempted.Add(1)
	start := time.Now()
	if err := w.compute(i); err != nil {
		return inflight, fmt.Errorf("step: %w", err)
	}
	if arm {
		if inflight != nil {
			res := <-inflight.done
			w.a.setInflight(false)
			if err := w.committed(p, res, inflight.name); err != nil {
				return nil, err
			}
		}
		p.attempted.Add(1)
		ck := rec.begin("ckpt", 0)
		armed := time.Now()
		pending, err := w.a.s.CheckpointAsync(withSpan(ctx, ck), w.store, name)
		pause := time.Since(armed)
		if err != nil {
			rec.end(ck)
			return nil, fmt.Errorf("checkpoint %s: %w", name, err)
		}
		p.pause.add(pause)
		w.a.setInflight(true)
		inflight = &cut{name: name, done: make(chan cutResult, 1)}
		go func(c *cut) {
			st, err := pending.Wait()
			d := time.Since(armed)
			rec.end(ck)
			c.done <- cutResult{st: st, err: err, d: d}
		}(inflight)
	}
	p.step.add(time.Since(start))
	p.ops.Add(1)
	if inflight != nil {
		storeMax(&p.retainedPeak, w.a.s.Space().RetainedPages())
	}
	return inflight, nil
}

// writeBehind is step i's computation, run while the tip cut is in
// flight and not timed as a step.
func (w *deltaCow) writeBehind(p *phase, i int) error {
	p.attempted.Add(1)
	sp := w.e.rec.begin("write-behind", 0)
	defer w.e.rec.end(sp)
	w.a.setParent(sp)
	if err := w.compute(i); err != nil {
		return fmt.Errorf("write-behind: %w", err)
	}
	storeMax(&p.retainedPeak, w.a.s.Space().RetainedPages())
	return nil
}

// committed records a cut's outcome.
func (w *deltaCow) committed(p *phase, res cutResult, name string) error {
	if res.err != nil {
		return fmt.Errorf("checkpoint %s: %w", name, res.err)
	}
	p.ckpt.add(res.d)
	p.ckptStats(res.st)
	return nil
}

// restart lazily restores the chain tip, launches the first kernel,
// waits for the drain and checks every restored byte. A non-nil live
// (a test's stand-in for a cut that let later writes through) is
// written over the restored buffers before the check.
func (w *deltaCow) restart(ctx context.Context, p *phase, tip string, want []uint32, live [][]byte) error {
	p.attempted.Add(1)
	rec := w.e.rec
	rs := rec.begin("restart", 0)
	w.a.setParent(rs)
	start := time.Now()
	r, err := w.a.s.RestartAsync(withSpan(ctx, rs), w.store, tip)
	if err != nil {
		rec.end(rs)
		return fmt.Errorf("restart %s: %w", tip, err)
	}
	err = w.a.firstKernel(dcProbeSize)
	ttfk := time.Since(start)
	cold := w.a.s.Space().ColdBytes()
	st, werr := r.Wait()
	d := time.Since(start)
	rec.end(rs)
	if err != nil {
		return fmt.Errorf("first kernel after restart %s: %w", tip, err)
	}
	if werr != nil {
		return fmt.Errorf("restart %s: drain: %w", tip, werr)
	}
	p.ttfk.add(ttfk)
	p.restart.add(d)
	p.coldMiB.addMs(float64(cold) / (1 << 20))
	p.restoreVisible.add(st.RestoreVisibleDuration)
	p.restoreBackground.add(st.RestoreBackgroundDuration)
	mmaps, _ := w.a.s.Space().Stats()
	p.mmaps.addMs(float64(mmaps))
	for i, b := range live {
		if err := w.a.s.Space().WriteAt(w.a.bufs[i].addr, b); err != nil {
			return err
		}
	}
	return w.a.verify(want, w.scratch)
}

func (w *deltaCow) close() {
	if w.a != nil {
		w.a.s.Close()
	}
}
