package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	crac "repro"
)

// pool-churn is the fleet use: a Pool of pcSessions sessions of
// ≈128 KiB each (a 64 KiB pinned buffer and a 64 KiB device buffer)
// across pcTenants tenants, over NewCASStore(NewMemStore()). pcClients
// closed-loop client goroutines each own an equal share of the sessions
// and run a seeded mix: 70% mutate + checkpoint, 20% restart, 10% close
// + reopen. Every restart is checked against a host-side shadow copy of
// the state at the session's last checkpoint.
//
// The content follows the repository's dedup model (exp_dedup and
// TestCASDedupAcrossSessions: sessions 97% identical, 256 KiB shards).
// Opening a session and every mutation rewrite each buffer whole. Every
// pcUniqueEvery-th rewrite of a client (3%) writes content unique to
// the session (seeded random bytes in the pinned buffer, a kernel with
// a seeded scale in the device buffer); the others write one of
// pcValues contents the whole fleet shares. So ≈97% of the fleet's
// state is shared. Each buffer lies within one 256 KiB shard: the CAS
// layer dedups the shared shards and stores every unique one as a new
// chunk. A fixed schedule, not a coin, picks the unique rewrites, so
// the stored bytes barely depend on the seed.
//
// Each client pauses pcThink before every operation, so the two clients
// and the Go runtime keep the machine's two CPUs below saturation and
// latencies measure service time, not queueing for a CPU. The pauses
// are timed and left out of ops_per_s. The first pcCensusOps operations
// of each client are the census.
const (
	pcSessions    = 64
	pcTenants     = 8
	pcClients     = 2
	pcHostBytes   = 64 << 10
	pcDevBytes    = 64 << 10
	pcProbeSize   = 4 << 10
	pcShardSize   = 256 << 10
	pcValues      = 8
	pcUniqueEvery = 33
	pcCensusOps   = 600
	pcThink       = time.Millisecond
)

type poolChurn struct {
	e        *env
	pool     *crac.Pool
	mem      *crac.MemStore
	sessions []*pooled

	contents []*content // one per client
	mutates  atomic.Int64
	mutCalls atomic.Int64
	waitPeak atomic.Int64
}

// pooled is one session of the pool with its shadow copies: the state
// now and the state at its last committed checkpoint.
type pooled struct {
	tenant     string
	image      string // the session's image name within its tenant
	ps         *crac.PoolSession
	a          *app
	host, dev  uint64
	shadow     []byte // host bytes, then device bytes
	ckptShadow []byte
}

func poolSessionOpts() []crac.Option {
	return []crac.Option{
		crac.WithWorkers(1),
		crac.WithArenaChunks(256<<10, 128<<10, 256<<10),
		crac.WithConcurrentCheckpoint(),
		crac.WithIncremental(1),
		crac.WithShardSize(pcShardSize),
	}
}

func (w *poolChurn) setup(e *env, p *phase) error {
	w.e = e
	w.mem = crac.NewMemStore()
	pool, err := crac.NewPool(wrapStores(e, p, w.mem, true),
		crac.WithPoolSessionOptions(poolSessionOpts()...),
		crac.WithPoolMaxConcurrentCuts(1))
	if err != nil {
		return err
	}
	w.pool = pool
	c0 := &content{rng: rand.New(rand.NewSource(e.seed*1000003 + 11))}
	for c := 0; c < pcClients; c++ {
		w.contents = append(w.contents, &content{rng: rand.New(rand.NewSource(e.seed*1000003 + int64(100+c)))})
	}
	for i := 0; i < pcSessions; i++ {
		ps := &pooled{tenant: fmt.Sprintf("t%d", i%pcTenants), image: fmt.Sprintf("s%d", i)}
		if err := w.open(context.Background(), p, ps, c0); err != nil {
			return err
		}
		w.sessions = append(w.sessions, ps)
	}
	return nil
}

// open admits a session for ps's tenant, gives it seeded state and
// takes its first checkpoint.
func (w *poolChurn) open(ctx context.Context, p *phase, ps *pooled, c *content) error {
	start := time.Now()
	s, err := w.pool.Open(ps.tenant)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	w.e.rec.add("session.new", 0, start, end)
	p.newMs.add(end.Sub(start))
	ps.ps = s
	ps.a = &app{s: s.Session()}
	if err := ps.a.bind(w.e, s.Session().Runtime()); err != nil {
		return err
	}
	if ps.host, err = ps.a.alloc(pcHostBytes, true); err != nil {
		return err
	}
	if ps.dev, err = ps.a.alloc(pcDevBytes, false); err != nil {
		return err
	}
	if ps.a.probe, err = ps.a.rt.Malloc(pcProbeSize); err != nil {
		return err
	}
	ps.shadow = make([]byte, pcHostBytes+pcDevBytes)
	if err := ps.rewrite(c); err != nil {
		return err
	}
	if _, err := s.Checkpoint(ctx, ps.image); err != nil {
		return fmt.Errorf("first checkpoint: %w", err)
	}
	ps.ckptShadow = append(ps.ckptShadow[:0], ps.shadow...)
	return nil
}

// rewrite rewrites both buffers whole, through the runtime and the
// shadow, and synchronizes.
func (ps *pooled) rewrite(c *content) error {
	if err := ps.writeHost(c); err != nil {
		return err
	}
	if err := ps.writeDev(c); err != nil {
		return err
	}
	return ps.a.rt.DeviceSynchronize()
}

// content is one client's (or set-up's) seeded stream of operations
// and buffer contents.
type content struct {
	rng *rand.Rand
	n   int // buffer rewrites so far
}

// unique reports whether the next buffer rewrite is unique to its
// session: every pcUniqueEvery-th one is.
func (c *content) unique() bool {
	c.n++
	return c.n%pcUniqueEvery == 0
}

// writeHost rewrites the pinned buffer: seeded random bytes, stored by
// the host as an application stores into its pinned memory, or a
// memset to a fleet-shared byte.
func (ps *pooled) writeHost(c *content) error {
	blk := ps.shadow[:pcHostBytes]
	if c.unique() {
		c.rng.Read(blk)
		return ps.a.s.Space().WriteAt(ps.host, blk)
	}
	b := byte(c.rng.Intn(pcValues)*29 + 3)
	for i := range blk {
		blk[i] = b
	}
	return ps.a.rt.Memset(ps.host, b, pcHostBytes)
}

// writeDev rewrites the device buffer with a kernel: iota with a seeded
// scale, or a fill with a fleet-shared value.
func (ps *pooled) writeDev(c *content) error {
	blk := ps.shadow[pcHostBytes:]
	if c.unique() {
		scale := 1 + c.rng.Float32()
		for i := 0; i < len(blk); i += 4 {
			binary.LittleEndian.PutUint32(blk[i:], math.Float32bits(scale*float32(i/4)))
		}
		return ps.a.launch("iota", ps.dev, scale, pcDevBytes/4)
	}
	f := float32(c.rng.Intn(pcValues) + 1)
	bits := math.Float32bits(f)
	for i := 0; i < len(blk); i += 4 {
		binary.LittleEndian.PutUint32(blk[i:], bits)
	}
	return ps.a.launch("fill", ps.dev, f, pcDevBytes/4)
}

// verify compares the restored state byte for byte with the shadow
// taken at the last checkpoint.
func (ps *pooled) verify(scratch []byte) error {
	space := ps.a.s.Space()
	got := scratch[:pcHostBytes+pcDevBytes]
	if err := space.ReadAt(ps.host, got[:pcHostBytes]); err != nil {
		return err
	}
	if err := space.ReadAt(ps.dev, got[pcHostBytes:]); err != nil {
		return err
	}
	if !bytes.Equal(got, ps.ckptShadow) {
		return fmt.Errorf("restored state differs from its checkpoint")
	}
	return nil
}

// clients runs every client's closed loop until the deadline, or for
// ops operations each when ops > 0, and waits for them.
func (w *poolChurn) clients(ctx context.Context, p *phase, until time.Time, ops int) {
	per := pcSessions / pcClients
	var wg sync.WaitGroup
	for c := 0; c < pcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.client(ctx, p, w.sessions[c*per:(c+1)*per], w.contents[c], until, ops)
		}(c)
	}
	wg.Wait()
}

// census runs pcCensusOps operations per client, then reads the
// deterministic counters.
func (w *poolChurn) census(ctx context.Context, p *phase) error {
	w.clients(ctx, p, time.Time{}, pcCensusOps)
	if p.err() != nil {
		return nil
	}
	held, err := storeBytes(ctx, w.mem)
	if err != nil {
		return err
	}
	plain := crac.NewCASStore(w.mem)
	var entries int
	for _, ps := range w.sessions {
		n, err := logEntries(ctx, plain, ps.tenant+"--"+ps.image)
		if err != nil {
			p.fail(err)
			return nil
		}
		entries += n
	}
	st := w.pool.Stats()
	p.det = det{
		StoredMiBPerCkpt:  float64(held) / float64(st.Checkpoints) / (1 << 20),
		ShardsWritten:     p.shards.mean(),
		EntriesPerRestart: float64(entries) / pcSessions,
		CallsPerStep:      float64(w.mutCalls.Load()) / float64(w.mutates.Load()),
	}
	return nil
}

func (w *poolChurn) run(ctx context.Context, p *phase, deadline time.Time) error {
	w.waitPeak.Store(0)
	p.clients = pcClients
	w.clients(ctx, p, deadline, 0)
	p.pool = w.pool.Stats()
	p.pool.Waiting = int(w.waitPeak.Load())
	if len(p.stores) > 0 {
		p.chunksNew = p.stores[0].chunkPuts.Load()
	}
	dedup, err := crac.DedupReport(ctx, crac.NewCASStore(w.mem))
	if err != nil {
		return err
	}
	p.dedup = dedup
	return nil
}

// client runs a closed loop over its sessions until the deadline, or
// for ops operations when ops > 0. It stops at the first failure.
func (w *poolChurn) client(ctx context.Context, p *phase, mine []*pooled, c *content, until time.Time, ops int) {
	scratch := make([]byte, pcHostBytes+pcDevBytes)
	for i := 0; ops == 0 || i < ops; i++ {
		if ops == 0 && time.Now().After(until) {
			return
		}
		if p.err() != nil {
			return
		}
		t := time.Now()
		time.Sleep(pcThink)
		p.think.Add(int64(time.Since(t)))
		ps := mine[c.rng.Intn(len(mine))]
		r := c.rng.Intn(10)
		p.attempted.Add(1)
		var err error
		switch {
		case r < 7:
			err = w.mutate(ctx, p, ps, c)
		case r < 9:
			err = w.restart(ctx, p, ps, scratch)
		default:
			ps.ps.Close()
			err = w.open(ctx, p, ps, c)
		}
		if err != nil {
			p.fail(fmt.Errorf("tenant %s session %s: %w", ps.tenant, ps.image, err))
			return
		}
		p.ops.Add(1)
		if i%50 == 0 {
			storeMax(&w.waitPeak, int64(w.pool.Stats().Waiting))
		}
	}
}

// mutate rewrites the session's state (the step) and checkpoints it.
func (w *poolChurn) mutate(ctx context.Context, p *phase, ps *pooled, c *content) error {
	rec := w.e.rec
	sp := rec.begin("step", 0)
	ps.a.setParent(sp)
	calls0 := ps.a.rt.Counters().TotalCUDACalls()
	start := time.Now()
	err := ps.rewrite(c)
	p.step.add(time.Since(start))
	rec.end(sp)
	if err != nil {
		return err
	}
	w.mutCalls.Add(int64(ps.a.rt.Counters().TotalCUDACalls() - calls0))
	w.mutates.Add(1)
	ck := rec.begin("ckpt", 0)
	start = time.Now()
	st, err := ps.ps.Checkpoint(withSpan(ctx, ck), ps.image)
	d := time.Since(start)
	rec.end(ck)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	p.ckpt.add(d)
	p.pause.add(d)
	p.ckptStats(st)
	ps.ckptShadow = append(ps.ckptShadow[:0], ps.shadow...)
	return nil
}

// restart restores the session from its last checkpoint, launches the
// first kernel and checks the state against the shadow.
func (w *poolChurn) restart(ctx context.Context, p *phase, ps *pooled, scratch []byte) error {
	rec := w.e.rec
	rs := rec.begin("restart", 0)
	ps.a.setParent(rs)
	start := time.Now()
	err := ps.ps.Restart(withSpan(ctx, rs), ps.image)
	d := time.Since(start)
	if err == nil {
		err = ps.a.firstKernel(pcProbeSize)
	}
	ttfk := time.Since(start)
	rec.end(rs)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	p.restart.add(d)
	p.ttfk.add(ttfk)
	mmaps, _ := ps.a.s.Space().Stats()
	p.mmaps.addMs(float64(mmaps))
	if err := ps.verify(scratch); err != nil {
		return err
	}
	ps.shadow = append(ps.shadow[:0], ps.ckptShadow...)
	return nil
}

func (w *poolChurn) close() {
	if w.pool != nil {
		w.pool.Close()
	}
}
