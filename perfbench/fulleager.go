package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	crac "repro"
	"repro/internal/crt"
)

// full-eager is the paper's Fig. 3 use: ≈16 MiB of device and pinned
// state that kernels rewrite every step, a malloc/free scratch churn
// per step (as in Heartwall and Streamcluster, so replay is a real
// share of restart), a blocking full image (gzip off) into a MemStore
// every step, and an eager RestartFrom every feRestartEvery steps. One
// closed-loop client. A session lives for one episode of feEpisode
// steps, so the replay log, which grows with every malloc/free, spans
// the same range in every episode; the first episode is the census.
const (
	feDevBufs      = 6
	fePinBufs      = 2
	feBufSize      = 2 << 20
	feProbeSize    = 64 << 10
	feChurn        = 32
	feRestartEvery = 10
	feEpisode      = 50
)

type fullEager struct {
	e       *env
	a       *app
	mem     *crac.MemStore
	store   crac.Store
	dev     []uint64
	pin     []uint64
	rng     *rand.Rand
	scratch []byte
	prev    string
	n       int // the current episode
}

func (w *fullEager) setup(e *env, p *phase) error {
	w.e = e
	w.scratch = make([]byte, feBufSize)
	w.mem = crac.NewMemStore()
	w.store = wrapStores(e, p, w.mem, false)
	return w.newEpisode(p, 0)
}

// newEpisode launches a fresh session with freshly generated state.
func (w *fullEager) newEpisode(p *phase, episode int) error {
	if w.a != nil {
		w.a.s.Close()
	}
	w.rng = rand.New(rand.NewSource(w.e.seed*1000003 + int64(episode)))
	a, err := newApp(w.e, p, crac.WithWorkers(1))
	if err != nil {
		return err
	}
	w.a = a
	w.dev, w.pin = w.dev[:0], w.pin[:0]
	for i := 0; i < feDevBufs; i++ {
		d, err := a.alloc(feBufSize, false)
		if err != nil {
			return err
		}
		w.dev = append(w.dev, d)
	}
	for i := 0; i < fePinBufs; i++ {
		h, err := a.alloc(feBufSize, true)
		if err != nil {
			return err
		}
		w.pin = append(w.pin, h)
	}
	if a.probe, err = a.rt.Malloc(feProbeSize); err != nil {
		return err
	}
	return w.compute()
}

// compute is the application's work in one step: every device buffer
// rewritten by a kernel, the scratch churn, and the results copied into
// the pinned buffers.
func (w *fullEager) compute() error {
	rt := w.a.rt
	for _, d := range w.dev {
		if err := w.a.launch("iota", d, w.rng.Float32()+0.5, feBufSize/4); err != nil {
			return err
		}
	}
	// The churn's sizes are fixed; the seed only orders them, so every
	// seed allocates the same bytes.
	scratch := make([]uint64, feChurn)
	for i, j := range w.rng.Perm(feChurn) {
		var err error
		if scratch[i], err = rt.Malloc(uint64(4<<10) << (j % 5)); err != nil {
			return err
		}
	}
	for _, s := range scratch {
		if err := rt.Free(s); err != nil {
			return err
		}
	}
	for i, h := range w.pin {
		if err := rt.Memcpy(h, w.dev[i], feBufSize, crt.MemcpyDeviceToHost); err != nil {
			return err
		}
	}
	return rt.DeviceSynchronize()
}

func (w *fullEager) census(ctx context.Context, p *phase) error {
	return w.episode(ctx, p, time.Time{}, true)
}

func (w *fullEager) run(ctx context.Context, p *phase, deadline time.Time) error {
	for time.Now().Before(deadline) && p.err() == nil {
		w.n++
		if err := w.newEpisode(p, w.n); err != nil {
			return fmt.Errorf("episode %d: %w", w.n, err)
		}
		// The closed session is garbage a real process would not leave
		// behind: collect it outside the timed windows.
		runtime.GC()
		if err := w.episode(ctx, p, deadline, false); err != nil {
			return err
		}
	}
	return nil
}

// episode runs the current session's steps, stopping early at the
// deadline unless it is the census, whose deterministic counters it
// records. An operation that fails is counted in p and ends it.
func (w *fullEager) episode(ctx context.Context, p *phase, deadline time.Time, census bool) error {
	var stored int64
	var entries, ckpts, restarts int
	calls0 := w.a.rt.Counters().TotalCUDACalls()
	for step := 1; step <= feEpisode; step++ {
		if !census && time.Now().After(deadline) {
			return nil
		}
		name := fmt.Sprintf("e%d-s%d", w.n, step)
		if err := w.step(ctx, p, name); err != nil {
			p.fail(err)
			return nil
		}
		sz, err := imageSize(ctx, w.mem, name)
		if err != nil {
			return err
		}
		stored += sz
		ckpts++
		if step%feRestartEvery != 0 {
			continue
		}
		if err := w.restart(ctx, p, name); err != nil {
			p.fail(err)
			return nil
		}
		restarts++
		if census {
			n, err := logEntries(ctx, w.mem, name)
			if err != nil {
				p.fail(err)
				return nil
			}
			entries += n
		}
		// The restart discarded the old process's address space, which
		// a real restart frees with the process: collect it outside the
		// timed windows.
		runtime.GC()
	}
	if census {
		p.det = det{
			StoredMiBPerCkpt:  float64(stored) / float64(ckpts) / (1 << 20),
			ShardsWritten:     p.shards.mean(),
			EntriesPerRestart: float64(entries) / float64(restarts),
			CallsPerStep:      float64(w.a.rt.Counters().TotalCUDACalls()-calls0) / feEpisode,
		}
	}
	return nil
}

// step runs one application step and its blocking checkpoint; the step
// time includes the checkpoint, which pauses the application for its
// whole duration.
func (w *fullEager) step(ctx context.Context, p *phase, name string) error {
	rec := w.e.rec
	sp := rec.begin("step", 0)
	defer rec.end(sp)
	w.a.setParent(sp)
	p.attempted.Add(2)
	start := time.Now()
	if err := w.compute(); err != nil {
		return fmt.Errorf("step: %w", err)
	}
	ck := rec.begin("ckpt", sp)
	ckStart := time.Now()
	st, err := w.a.s.CheckpointTo(withSpan(ctx, ck), w.store, name)
	d := time.Since(ckStart)
	rec.end(ck)
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", name, err)
	}
	p.step.add(time.Since(start))
	p.ckpt.add(d)
	p.pause.add(d)
	p.ckptStats(st)
	p.ops.Add(1)
	if w.prev != "" {
		if err := w.mem.Delete(ctx, w.prev); err != nil {
			return err
		}
	}
	w.prev = name
	return nil
}

// restart restores the session from the image just taken and checks
// every restored byte against the state at the cut.
func (w *fullEager) restart(ctx context.Context, p *phase, name string) error {
	want, err := stateCRC(w.a.s.Space(), w.a.bufs, w.scratch)
	if err != nil {
		return err
	}
	p.attempted.Add(1)
	rec := w.e.rec
	rs := rec.begin("restart", 0)
	w.a.setParent(rs)
	start := time.Now()
	err = w.a.s.RestartFrom(withSpan(ctx, rs), w.store, name)
	restart := time.Since(start)
	if err == nil {
		err = w.a.firstKernel(feProbeSize)
	}
	ttfk := time.Since(start)
	rec.end(rs)
	if err != nil {
		return fmt.Errorf("restart %s: %w", name, err)
	}
	p.restart.add(restart)
	p.ttfk.add(ttfk)
	mmaps, _ := w.a.s.Space().Stats()
	p.mmaps.addMs(float64(mmaps))
	return w.a.verify(want, w.scratch)
}

func (w *fullEager) close() {
	if w.a != nil {
		w.a.s.Close()
	}
}
