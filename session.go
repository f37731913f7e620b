package crac

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addrspace"
	"repro/internal/cracplugin"
	"repro/internal/cracrt"
	"repro/internal/crt"
	"repro/internal/cuda"
	"repro/internal/dmtcp"
	"repro/internal/fsgs"
	"repro/internal/loader"
	"repro/internal/replaylog"
)

// Stats describes one checkpoint operation (regions, payload bytes, and
// the wall-time split between image writing and plugin hooks).
type Stats = dmtcp.Stats

// SwitcherKind selects the fs-register switching mechanism used by the
// upper→lower trampoline (paper Section 4.4.5).
type SwitcherKind int

// Switcher kinds.
const (
	// SwitchSyscall switches fs through a kernel call, as on an
	// unpatched Linux kernel (the default, matching the paper's main
	// experiments).
	SwitchSyscall SwitcherKind = iota
	// SwitchFSGSBase switches fs with the WRFSBASE instruction, as on a
	// kernel with the FSGSBASE patch.
	SwitchFSGSBase
	// SwitchNone performs no switching (used for calibration only; a
	// real split process always switches).
	SwitchNone
)

func (k SwitcherKind) newSwitcher() fsgs.Switcher {
	switch k {
	case SwitchFSGSBase:
		return fsgs.NewFSGSBase()
	case SwitchNone:
		return fsgs.None{}
	default:
		return fsgs.NewSyscall()
	}
}

func (s settings) libConfig(space *addrspace.Space) cuda.Config {
	return cuda.Config{
		Prop:              s.prop,
		Space:             space,
		DeviceArenaChunk:  s.deviceArenaChunk,
		PinnedArenaChunk:  s.pinnedArenaChunk,
		ManagedArenaChunk: s.managedArenaChunk,
		GrowthMmaps:       s.growthMmaps,
	}
}

// Session is one CUDA application execution under CRAC: a single
// simulated process whose address space holds the checkpointed upper half
// (application) and a disposable lower half (helper program + active
// CUDA library), per Figure 1 of the paper.
type Session struct {
	cfg settings

	mu         sync.Mutex
	space      *addrspace.Space
	helper     *loader.Program
	lib        *cuda.Library
	rt         *cracrt.Runtime
	engine     *dmtcp.Engine
	plugin     *cracplugin.Plugin
	generation int // incremented on every restart

	// incr is the incremental-checkpoint chain state: the lineage of the
	// last committed CheckpointTo (nil: the next checkpoint is a base).
	// Guarded by mu; committed only after the Store.Put succeeded.
	incr *dmtcp.DeltaState

	// inflight is the concurrent checkpoint currently writing its image
	// in the background (nil: none). Guarded by mu; a second checkpoint
	// or a restart while one is in flight reports ErrCheckpointInFlight.
	inflight *Pending

	// lazy is the lazy restart currently draining in the background
	// (nil: none). Guarded by mu; a later restart or Close cancels it
	// before discarding the space it serves.
	lazy *lazyHandle

	// migrating marks a live migration in progress (crac.Migrate).
	// Guarded by mu. While set, only the migration itself may take
	// checkpoints — an interleaved user checkpoint would entangle its
	// delta lineage (and the plugin's single dirty baseline) with the
	// migration's pre-copy chain — and restarts are refused outright.
	migrating bool

	// qmu serializes Quiesce/Resume; quiesced is the nesting depth.
	qmu      sync.Mutex
	quiesced int
}

// buildLowerHalf loads a fresh helper program and CUDA library into
// space, returning the library and the published entry-point table.
func buildLowerHalf(cfg settings, space *addrspace.Space) (*loader.Program, *cuda.Library, cracrt.EntryTable, error) {
	helper, err := loader.NewLower(space).Load(loader.HelperSpec(cracrt.Symbols))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("crac: loading helper: %w", err)
	}
	lib, err := cuda.NewLibrary(cfg.libConfig(space))
	if err != nil {
		helper.Unload()
		return nil, nil, nil, fmt.Errorf("crac: initializing CUDA library: %w", err)
	}
	entries := make(cracrt.EntryTable, len(cracrt.Symbols))
	for _, sym := range cracrt.Symbols {
		addr, ok := helper.Entry(sym)
		if !ok {
			lib.Destroy()
			helper.Unload()
			return nil, nil, nil, fmt.Errorf("crac: helper does not export %q", sym)
		}
		entries[sym] = addr
	}
	return helper, lib, entries, nil
}

// aslrIncarnation makes each simulated process incarnation randomize its
// layout differently, as real ASLR does across exec().
var aslrIncarnation atomic.Uint64

func newSpace(cfg settings) *addrspace.Space {
	s := addrspace.New()
	if cfg.aslr {
		s.SetASLR(true, cfg.aslrSeed+int64(aslrIncarnation.Add(1))*0x9e3779b9)
	}
	return s
}

// New launches a CRAC session: it creates the process address space,
// loads the lower-half helper (publishing the CUDA entry-point table),
// initializes the CUDA library, and wires the trampoline runtime and
// the checkpoint engine. With no options the session matches the
// paper's main configuration (Tesla V100, syscall fs switch, no
// compression, ASLR off).
func New(opts ...Option) (*Session, error) {
	return newSession(resolve(opts))
}

func newSession(cfg settings) (*Session, error) {
	space := newSpace(cfg)
	helper, lib, entries, err := buildLowerHalf(cfg, space)
	if err != nil {
		return nil, err
	}
	rt := cracrt.New(lib, entries, cfg.switcher.newSwitcher())
	if cfg.kernels != nil {
		for module, funcs := range cfg.kernels.modules {
			rt.RegisterKernelTable(module, funcs)
		}
	}
	plugin := cracplugin.New(rt)
	plugin.Workers = cfg.workers
	engine := dmtcp.NewEngine()
	engine.Gzip = cfg.gzip
	engine.GzipLevel = cfg.gzipLevel
	engine.Workers = cfg.workers
	engine.ShardSize = cfg.shardSize
	engine.Budget = cfg.budget
	engine.Register(plugin)
	return &Session{
		cfg:    cfg,
		space:  space,
		helper: helper,
		lib:    lib,
		rt:     rt,
		engine: engine,
		plugin: plugin,
	}, nil
}

// Runtime returns the CUDA runtime the application should program
// against (the upper half's "dummy libcuda").
func (s *Session) Runtime() crt.Runtime { return s.rt }

// CRACRuntime returns the concrete CRAC runtime, exposing the call log
// and kernel-table registration for cross-process restore.
func (s *Session) CRACRuntime() *cracrt.Runtime { return s.rt }

// Space returns the session's current address space. Unlike the lower
// half it survives Close (it is plain memory); use Library() == nil to
// detect a closed session.
func (s *Session) Space() *addrspace.Space {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.space
}

// Library returns the current lower-half CUDA library (nil once closed
// or after a failed restart).
func (s *Session) Library() *cuda.Library {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lib
}

// Generation reports how many restarts this session has been through.
func (s *Session) Generation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}

// SetRootBlob stores an application pointer-table blob in future images.
func (s *Session) SetRootBlob(b []byte) { s.plugin.SetRootBlob(b) }

// RootBlob returns the blob (after a restore, the one from the image).
func (s *Session) RootBlob() []byte { return s.plugin.RootBlob() }

// reserveCheckpoint claims the session's single checkpoint slot. Every
// checkpoint — blocking or concurrent — holds the slot for its full
// duration, so two checkpoints can never interleave their epoch cuts
// and plugin staging (which would corrupt the incremental skip
// baseline). While a migration holds the session, only its own rounds
// (migration == true) may claim the slot. The returned Pending doubles
// as the token; whoever finishes the write must releaseCheckpoint.
func (s *Session) reserveCheckpoint(name string, migration bool) (*Pending, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lib == nil {
		return nil, ErrSessionClosed
	}
	if s.migrating && !migration {
		return nil, fmt.Errorf("%w: cannot checkpoint", ErrMigrationInFlight)
	}
	if s.inflight != nil {
		if s.inflight.name != "" {
			return nil, fmt.Errorf("%w: %q is still being written", ErrCheckpointInFlight, s.inflight.name)
		}
		return nil, ErrCheckpointInFlight
	}
	p := &Pending{name: name, done: make(chan struct{})}
	s.inflight = p
	return p, nil
}

func (s *Session) releaseCheckpoint() {
	s.mu.Lock()
	s.inflight = nil
	s.mu.Unlock()
}

// armFrozen is the stop-the-world window of a concurrent checkpoint.
// Unless the caller already holds a Quiesce, it micro-quiesces for the
// duration of the arming — launch gate (waits out in-flight Memset/
// Memcpy/launches, whose slice writes would otherwise span the arming
// unpreserved), device drain, then memory freeze — so no writer that
// resolved memory before the window can mutate it after the snapshot
// arms. The gates reopen before armFrozen returns; only the returned
// pause was application-visible.
func (s *Session) armFrozen(ctx context.Context, space *addrspace.Space, incremental bool, prev *dmtcp.DeltaState, name string) (*dmtcp.Frozen, time.Duration, error) {
	pauseStart := time.Now()
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.quiesced == 0 {
		s.rt.QuiesceLaunches()
		defer s.rt.ResumeLaunches()
		lib := s.Library()
		if lib == nil {
			return nil, 0, ErrSessionClosed
		}
		// Drain before freezing memory: in-flight kernels still write
		// their results, and the freeze must wait for those writes, not
		// deadlock them.
		if err := lib.DeviceSynchronize(); err != nil {
			return nil, 0, err
		}
		space.Freeze()
		defer space.Thaw()
	}
	// A copy-on-write snapshot reads frozen backing arrays directly,
	// bypassing the lazy fault gate — so a still-draining lazy restart
	// must fully materialize before the snapshot arms, or the image
	// would capture unmaterialized zeros.
	if err := space.DrainLazy(); err != nil {
		return nil, 0, err
	}
	fz, err := s.engine.FreezeCheckpoint(ctx, space, incremental, prev, name)
	if err != nil {
		return nil, 0, err
	}
	// The gate waits and the drain above are application-visible pause
	// too: charge them to the checkpoint's wall clock so Duration always
	// contains PauseDuration.
	fz.StartedAt(pauseStart)
	return fz, time.Since(pauseStart), nil
}

// ckpt describes one checkpoint to Session.checkpoint, the body every
// checkpoint entry point runs. The entry points differ only in where
// the image lands, which lineage it joins, whether a snapshot is armed,
// and whether the write runs on a goroutine.
type ckpt struct {
	name  string
	store Store     // where the image lands (through an atomic Put)
	w     io.Writer // instead of store: write the image straight to w
	// chain joins the session's incremental lineage (WithIncremental).
	chain bool
	// migration marks a migration round: it takes the slot past the
	// migration door and chains to prev, leaving the session's own
	// lineage alone.
	migration bool
	prev      *dmtcp.DeltaState
	// snapshot takes a concurrent checkpoint: armFrozen's short pause,
	// then a write from the copy-on-write snapshot. Otherwise the
	// checkpoint is blocking: a live freeze, whose plugin hooks drain
	// the device, and a write from the live space.
	snapshot bool
	// async runs the write and commit on a goroutine.
	async bool
}

// checkpoint reserves the slot, resolves the lineage, freezes, writes
// the image through the Put, releases the freeze, and commits the
// lineage once the image is durable. A v3 image is written when the
// checkpoint joins a lineage, a v2 image otherwise.
func (s *Session) checkpoint(ctx context.Context, c ckpt) (*Pending, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := s.reserveCheckpoint(c.name, c.migration)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	space := s.space
	incremental, prev := c.migration, c.prev
	if c.chain {
		incremental, prev = true, s.incrPrevLocked(c.store, c.name)
	}
	s.mu.Unlock()

	var fz *dmtcp.Frozen
	var pause time.Duration
	if c.snapshot {
		fz, pause, err = s.armFrozen(ctx, space, incremental, prev, c.name)
	} else {
		fz, err = s.engine.FreezeLive(ctx, space, incremental, prev, c.name)
	}
	if err != nil {
		s.releaseCheckpoint()
		return nil, wrapCancelled(err)
	}
	write := func() {
		put := func(w io.Writer) error {
			mw := &meterWriter{w: w}
			var err error
			p.st, p.next, err = s.engine.WriteFrozen(ctx, mw, fz)
			p.moved = uint64(mw.n)
			return err
		}
		var err error
		if c.store != nil {
			err = c.store.Put(ctx, c.name, put)
		} else {
			err = put(c.w)
		}
		// Success or not, every retained CoW page is dropped here.
		fz.Release()
		if c.snapshot {
			p.st.PauseDuration = pause
		}
		if err == nil && incremental {
			// The image is durable: advance the chain and the plugin's
			// drain baseline together.
			s.plugin.CommitIncremental()
			if !c.migration {
				s.mu.Lock()
				s.incr = p.next
				s.mu.Unlock()
			}
		}
		p.err = wrapCancelled(err)
		s.releaseCheckpoint()
		close(p.done)
	}
	if c.async {
		go write()
	} else {
		write()
	}
	return p, nil
}

// meterWriter counts the bytes that actually crossed into the store.
type meterWriter struct {
	w io.Writer
	n int64
}

func (m *meterWriter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	m.n += int64(n)
	return n, err
}

// wait is Pending.Wait for an entry point that may have failed to
// start its checkpoint.
func wait(p *Pending, err error) (Stats, error) {
	if err != nil {
		return Stats{}, err
	}
	return p.Wait()
}

// Checkpoint drains the device and writes a checkpoint image to w. The
// session keeps running afterwards (DMTCP "checkpoint and continue").
// Cancelling ctx aborts the shard pipeline mid-image and returns an
// error matching both ErrCancelled and the context's own error; the
// session remains fully usable, but whatever bytes already reached w
// are not a valid image (checkpoint through a Store for all-or-nothing
// semantics). With WithConcurrentCheckpoint the write runs from a CoW
// snapshot: only the drain + arming pauses other goroutines.
func (s *Session) Checkpoint(ctx context.Context, w io.Writer) (Stats, error) {
	return wait(s.checkpoint(ctx, ckpt{w: w, snapshot: s.cfg.concurrent}))
}

// CheckpointTo checkpoints into a Store under name. The Put is atomic:
// a failed or cancelled checkpoint leaves no image (and no partial
// file) behind.
//
// With WithIncremental enabled, CheckpointTo transparently writes
// either a full v3 base or a delta against the previous CheckpointTo
// on this session: the first checkpoint (and every restart, shard-size
// change, or chain reaching its configured depth) produces a base;
// the rest carry only state written since their parent. The chain
// state advances only when the Put commits, so a failed or cancelled
// checkpoint never leaves the lineage pointing at an image that does
// not exist.
//
// With WithConcurrentCheckpoint the checkpoint takes CheckpointAsync's
// snapshot path, waited on: the calling goroutine blocks, but the
// application's other goroutines run through the whole image write and
// store commit.
func (s *Session) CheckpointTo(ctx context.Context, store Store, name string) (Stats, error) {
	return wait(s.checkpoint(ctx, ckpt{name: name, store: s.retryWrap(store),
		chain: s.cfg.incremental > 0, snapshot: s.cfg.concurrent}))
}

// retryWrap applies the session's WithCheckpointRetry policy to a
// store-bound operation (identity when the option is unset). Layered
// here — not inside the stores — so one option covers every entry
// point and caller-provided stores alike.
func (s *Session) retryWrap(store Store) Store {
	if s.cfg.retry == nil {
		return store
	}
	return WithRetry(store, *s.cfg.retry)
}

// incrPrevLocked resolves the lineage the next store-bound checkpoint
// should delta against (nil: write a base), applying the rotation
// guards. Caller holds s.mu.
func (s *Session) incrPrevLocked(store Store, name string) *dmtcp.DeltaState {
	prev := s.incr
	switch {
	case prev == nil:
	case singleImageStore(store):
		// A FileStore backs every name with one path: a delta written
		// there would replace the very base it depends on, regardless
		// of the names used. Such stores only ever get self-contained
		// images.
		prev = nil
	case prev.Depth >= s.cfg.incremental:
		prev = nil // chain is full: rotate to a fresh base
	case prev.InChain(name):
		// The target name is one the chain still depends on (e.g. a
		// fixed name reused every checkpoint): writing a delta there
		// would overwrite its own ancestor. Write a self-contained base
		// instead.
		prev = nil
	}
	return prev
}

// Pending is a checkpoint in flight: CheckpointAsync armed its
// snapshot inside the stop-the-world window and the image is being
// written in the background while the application executes.
type Pending struct {
	name  string
	done  chan struct{}
	st    Stats
	err   error
	next  *dmtcp.DeltaState // the written image's lineage (v3 only)
	moved uint64            // image bytes that crossed into the store
}

// Name returns the store name the checkpoint is being written under.
func (p *Pending) Name() string { return p.name }

// Done returns a channel closed when the checkpoint has committed (or
// failed); use it to select alongside application work.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Wait blocks until the checkpoint commits and returns its Stats. The
// error follows CheckpointTo's contract: on failure (including
// cancellation) the Store holds no partial image and the session keeps
// running.
func (p *Pending) Wait() (Stats, error) {
	<-p.done
	return p.st, p.err
}

// CheckpointAsync takes a snapshot-and-release checkpoint: the
// application is stopped only for the stream drain, the epoch cut, and
// the copy-on-write arming of the address space — all O(metadata) —
// and by the time CheckpointAsync returns, execution may continue. The
// shard pipeline, compression, and the Store commit run on a background
// goroutine against the snapshot; the committed image is byte-identical
// to a blocking CheckpointTo at the cut, no matter how hard the
// application mutates memory during the overlap.
//
// With WithIncremental, the checkpoint joins the session's delta chain
// exactly as CheckpointTo does; the chain state and the plugin's skip
// baseline advance only when the Put commits.
//
// Only one checkpoint may be in flight: a second CheckpointAsync (or a
// blocking checkpoint, or a restart) while one is pending reports
// ErrCheckpointInFlight. A failed or cancelled overlapped checkpoint
// leaves no partial image in the Store and releases every retained
// copy-on-write page.
//
// ctx governs the overlapped write, not just the arming: it must stay
// live until Pending.Wait (or Done) reports completion. In particular,
// `defer cancel()` in a function that returns right after
// CheckpointAsync cancels the background write and the checkpoint
// surfaces ErrCancelled from Wait.
func (s *Session) CheckpointAsync(ctx context.Context, store Store, name string) (*Pending, error) {
	return s.checkpoint(ctx, ckpt{name: name, store: s.retryWrap(store),
		chain: s.cfg.incremental > 0, snapshot: true, async: true})
}

// Restart simulates killing the process and restarting it from the image
// in r: the entire old address space (upper and lower halves, including
// the old CUDA library) is discarded; a fresh lower half is loaded; the
// upper-half regions are restored from the image; the CUDA call log is
// replayed against the fresh library so every allocation reappears at
// its original address; and the saved memory of active mallocs is
// refilled. The application continues through the same Runtime value,
// its virtual handles transparently re-mapped.
//
// Restart is destructive: once the old lower half is torn down, an
// error (including cancellation) leaves the session closed — only a
// fresh Restore can revive the image.
func (s *Session) Restart(ctx context.Context, r io.Reader) error {
	img, err := OpenImage(r)
	if err != nil {
		return err
	}
	return s.RestartImage(ctx, img)
}

// RestartImage restarts from an already-opened image. A v3 delta must
// be materialized first (open it through OpenImageFrom, which follows
// the parent chain inside its Store): a bare delta reports
// ErrDeltaChain.
func (s *Session) RestartImage(ctx context.Context, img *Image) error {
	if !img.img.Complete() {
		return fmt.Errorf("%w: open the image through its Store to materialize the chain", ErrDeltaChain)
	}
	return wrapCancelled(s.restartFromImage(ctx, img.img))
}

// RestartFrom restarts from the named image in a Store. A delta image's
// parent chain is followed through the same Store and materialized
// transparently. With WithLazyRestart the restart is lazy: RestartFrom
// returns as soon as the session can execute (metadata + replay only)
// and the image drains in the background — use RestartAsync directly
// to observe the drain.
func (s *Session) RestartFrom(ctx context.Context, store Store, name string) error {
	if s.cfg.lazyRestart {
		_, err := s.RestartAsync(ctx, store, name)
		return err
	}
	img, err := OpenImageFrom(ctx, s.retryWrap(store), name)
	if err != nil {
		return err
	}
	return s.RestartImage(ctx, img)
}

// RestartCheckpoint implements dmtcp.Restarter, making a Session a
// restartable rank under a Coordinator's RestartAll: the rank is
// rolled back to the coordinated checkpoint in r. Restart's contract
// applies — a failure past teardown leaves the session closed.
func (s *Session) RestartCheckpoint(r io.Reader) error {
	return s.Restart(context.Background(), r)
}

// Rebase breaks the session's incremental lineage: the next store-
// bound checkpoint writes a self-contained v3 base instead of a delta,
// whatever the chain state was. Repair paths use it when the stored
// chain is no longer trustworthy (see RepairChain); it is also the
// escape hatch when a chain's store is being switched mid-session.
func (s *Session) Rebase() {
	s.mu.Lock()
	s.incr = nil
	s.mu.Unlock()
}

func (s *Session) restartFromImage(ctx context.Context, img *dmtcp.Image) error {
	if ctx == nil {
		ctx = context.Background()
	}
	logBytes, ok := img.Sections.Get(cracplugin.SectionLog)
	if !ok {
		return fmt.Errorf("%w: image has no %s section", ErrBadImage, cracplugin.SectionLog)
	}
	log, err := replaylog.DecodeBytes(logBytes)
	if err != nil {
		return fmt.Errorf("%w: decoding image log: %v", ErrBadImage, err)
	}

	// A quiesced session cannot restart: log replay would block on the
	// held launch gate, and the fresh address space could never balance
	// the pending Resume's Thaw. qmu stays held for the whole restart so
	// a racing Quiesce cannot freeze the old space mid-swap (its Resume
	// would then thaw the new, never-frozen one).
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.quiesced > 0 {
		return fmt.Errorf("%w: resume before restarting", ErrQuiesced)
	}
	s.mu.Lock()
	if s.migrating {
		// A restart mid-migration would discard the very state the
		// pre-copy rounds are moving.
		s.mu.Unlock()
		return fmt.Errorf("%w: cannot restart", ErrMigrationInFlight)
	}
	if s.inflight != nil {
		// A restart discards the address space an overlapped checkpoint
		// is still reading from; wait the Pending out first.
		s.mu.Unlock()
		return fmt.Errorf("%w: cannot restart", ErrCheckpointInFlight)
	}
	oldLib, oldHelper, oldLazy := s.lib, s.helper, s.lazy
	// The lower half is about to die: clear the pointers first so a
	// failure below (or a concurrent Close) can never tear the same
	// objects down twice.
	s.lib, s.helper, s.lazy = nil, nil, nil
	s.mu.Unlock()
	if oldLib == nil {
		return ErrSessionClosed
	}
	// A still-draining lazy restart serves the space about to be
	// discarded: stop it before tearing the world down.
	if oldLazy != nil {
		oldLazy.detach()
	}

	// The old process dies: tear down its device and lower half.
	oldLib.Destroy()
	oldHelper.Unload()

	// A new process: fresh address space, fresh lower half. With ASLR
	// off, the helper and the arenas land at the same addresses.
	space := newSpace(s.cfg)
	helper, lib, entries, err := buildLowerHalf(s.cfg, space)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		lib.Destroy()
		helper.Unload()
		return err
	}
	// DMTCP restores the upper-half memory first...
	if err := dmtcp.RestoreRegionsN(ctx, img, space, s.cfg.workers); err != nil {
		return abort(err)
	}
	// ...then the CRAC plugin replays the log into the fresh library,
	// re-creating allocations/streams/events/fat binaries...
	if err := s.rt.Rebind(lib, entries, log); err != nil {
		return abort(err)
	}
	// ...and refills the drained device/pinned/managed memory.
	if err := s.engine.RunRestartHooks(ctx, img); err != nil {
		return abort(err)
	}

	s.mu.Lock()
	s.space, s.helper, s.lib = space, helper, lib
	s.generation++
	// The restored process starts a fresh lineage: the old chain's epoch
	// cuts are meaningless against the new address space, so the next
	// incremental checkpoint must be a base.
	s.incr = nil
	s.mu.Unlock()
	s.plugin.ResetIncremental()
	return nil
}

// Restore builds a brand-new session (a new process) from a checkpoint
// image — the cross-process restart path (cracrun writes an image; a
// later process restores it). Pass WithKernels so replay can resolve
// kernel names in the restored process, standing in for the device code
// in its text segment.
func Restore(ctx context.Context, r io.Reader, opts ...Option) (*Session, error) {
	img, err := OpenImage(r)
	if err != nil {
		return nil, err
	}
	return RestoreImage(ctx, img, opts...)
}

// RestoreImage builds a new session from an already-opened image.
func RestoreImage(ctx context.Context, img *Image, opts ...Option) (*Session, error) {
	s, err := New(opts...)
	if err != nil {
		return nil, err
	}
	if err := s.RestartImage(ctx, img); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// RestoreFrom builds a new session from the named image in a Store,
// materializing delta chains through the same Store. With
// WithLazyRestart the restore is lazy: the session returns ready to
// execute while the image drains in the background.
func RestoreFrom(ctx context.Context, store Store, name string, opts ...Option) (*Session, error) {
	cfg := resolve(opts)
	if cfg.retry != nil {
		store = WithRetry(store, *cfg.retry)
	}
	if cfg.lazyRestart {
		s, err := newSession(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := s.RestartAsync(ctx, store, name); err != nil {
			s.Close()
			return nil, err
		}
		return s, nil
	}
	img, err := OpenImageFrom(ctx, store, name)
	if err != nil {
		return nil, err
	}
	return RestoreImage(ctx, img, opts...)
}

// Close tears the session down. It is idempotent: a second Close (or a
// Close after a failed restart already tore the lower half down) is a
// no-op. Closing a quiesced session (a migrated source, say) releases
// the quiesce first: teardown unmaps the address space, which would
// otherwise deadlock against the frozen space's write gate.
func (s *Session) Close() {
	s.qmu.Lock()
	if s.quiesced > 0 {
		s.mu.Lock()
		space := s.space
		s.mu.Unlock()
		s.quiesced = 0
		space.Thaw()
		s.rt.ResumeLaunches()
	}
	s.qmu.Unlock()
	s.mu.Lock()
	lib, helper, lazy := s.lib, s.helper, s.lazy
	s.lib, s.helper, s.lazy = nil, nil, nil
	s.mu.Unlock()
	if lazy != nil {
		lazy.detach()
	}
	if lib != nil {
		lib.Destroy()
	}
	if helper != nil {
		helper.Unload()
	}
}

// Quiesce brings the session to a checkpointable standstill and holds
// it there: new kernel launches block before they reach the device, the
// device drains, and every application-side memory mutation (WriteAt,
// writable Slice, mmap/munmap/mprotect) blocks until Resume. Reads are
// unaffected, so checkpoints may be taken while quiesced. Quiesce
// nests; each call must be balanced by exactly one Resume. It also
// implements dmtcp.Member for coordinated multi-rank checkpoints.
func (s *Session) Quiesce() error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.mu.Lock()
	lib, space := s.lib, s.space
	s.mu.Unlock()
	if lib == nil {
		return ErrSessionClosed
	}
	if s.quiesced > 0 {
		s.quiesced++
		return nil
	}
	// Order matters: bar new launches first (the gate also waits out
	// launches mid-enqueue), then drain what the device already holds,
	// then freeze memory — a drained kernel may still be writing its
	// results while the drain runs, so the freeze comes last.
	s.rt.QuiesceLaunches()
	if err := lib.DeviceSynchronize(); err != nil {
		s.rt.ResumeLaunches()
		return err
	}
	space.Freeze()
	s.quiesced = 1
	return nil
}

// WriteCheckpoint implements dmtcp.Member.
func (s *Session) WriteCheckpoint(w io.Writer) error {
	_, err := s.Checkpoint(context.Background(), w)
	return err
}

// Resume releases one level of Quiesce, unblocking memory writes and
// kernel launches when the last level drops. An unbalanced Resume (no
// matching Quiesce) reports ErrNotQuiesced. Implements dmtcp.Member.
func (s *Session) Resume() error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.quiesced == 0 {
		return ErrNotQuiesced
	}
	s.quiesced--
	if s.quiesced == 0 {
		s.mu.Lock()
		space := s.space
		s.mu.Unlock()
		space.Thaw()
		s.rt.ResumeLaunches()
	}
	return nil
}

// NewNative builds the uninstrumented baseline: the same simulated device
// and CUDA library, bound directly (no trampoline, no logging, no
// checkpoint support). This is the "native" configuration of the paper's
// overhead measurements.
func NewNative(opts ...Option) (*crt.Native, error) {
	cfg := resolve(opts)
	space := newSpace(cfg)
	lib, err := cuda.NewLibrary(cfg.libConfig(space))
	if err != nil {
		return nil, err
	}
	return crt.NewNative(lib), nil
}
