package crac

import (
	"repro/internal/dmtcp"
	"repro/internal/gpusim"
)

// An Option configures a Session built by New, Restore, or RestoreFrom.
// The zero configuration (no options) matches the paper's main setup: a
// Tesla V100, the syscall fs switch, no compression, ASLR off, and the
// parallel data path using every CPU.
type Option func(*settings)

// settings is the resolved option set.
type settings struct {
	prop        gpusim.Properties
	switcher    SwitcherKind
	gzip        bool
	gzipLevel   int
	workers     int
	shardSize   int
	incremental int  // max deltas per base; 0 = incremental off
	concurrent  bool // blocking entry points use the snapshot path
	lazyRestart bool // RestartFrom/RestoreFrom use the lazy fault-in path
	aslr        bool
	aslrSeed    int64
	retry       *RetryPolicy        // nil: no store retry wrapping
	budget      *dmtcp.WorkerBudget // nil: per-process default pools

	deviceArenaChunk  uint64
	pinnedArenaChunk  uint64
	managedArenaChunk uint64
	growthMmaps       int

	kernels *KernelRegistry
}

func resolve(opts []Option) settings {
	var s settings
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithDevice selects the simulated device properties (default: Tesla
// V100).
func WithDevice(prop gpusim.Properties) Option {
	return func(s *settings) { s.prop = prop }
}

// WithSwitcher selects the fs-register switch mechanism of the
// upper→lower trampoline (default: SwitchSyscall, the unpatched-kernel
// configuration of the paper's main experiments).
func WithSwitcher(k SwitcherKind) Option {
	return func(s *settings) { s.switcher = k }
}

// WithGzip enables per-shard gzip compression of checkpoint images at
// the given compress/gzip level (gzip.BestSpeed..gzip.BestCompression;
// 0 selects gzip.DefaultCompression). Each shard compresses
// independently, so higher levels still scale across WithWorkers.
func WithGzip(level int) Option {
	return func(s *settings) { s.gzip, s.gzipLevel = true, level }
}

// WithWorkers bounds the checkpoint/restart data-path fan-out (image
// write pipeline, active-malloc drain, region/memory refill): n<=0 uses
// all CPUs, n==1 forces the serial reference path, which produces
// byte-identical images.
func WithWorkers(n int) Option {
	return func(s *settings) { s.workers = n }
}

// WithShardSize overrides the image shard granularity in bytes
// (0 = the format default).
func WithShardSize(bytes int) Option {
	return func(s *settings) { s.shardSize = bytes }
}

// WithIncremental enables incremental checkpointing: CheckpointTo
// writes a full v3 base image, then up to n delta images — each
// carrying only the memory pages and allocation bytes written since its
// parent — before rotating to a fresh base. Deltas name their parent
// image, so restoring the chain tip transparently materializes
// base + deltas (RestartFrom / RestoreFrom / OpenImageFrom follow the
// lineage through the same Store). n <= 0 disables incremental mode.
//
// Only store-bound checkpoints join a chain, and only they are written
// as v3 images: a plain Session.Checkpoint to an io.Writer has no name
// for a parent to refer to and always writes a self-contained v2
// image. A restart breaks the chain — the next checkpoint after it is
// a base.
func WithIncremental(n int) Option {
	return func(s *settings) { s.incremental = n }
}

// WithDeltaEvery is WithIncremental expressed as a base cadence: a full
// base image every n checkpoints, deltas in between (n <= 1 disables
// incremental mode). WithDeltaEvery(n) ≡ WithIncremental(n-1).
func WithDeltaEvery(n int) Option {
	return func(s *settings) { s.incremental = n - 1 }
}

// WithConcurrentCheckpoint routes Checkpoint and CheckpointTo through
// the snapshot-and-release (copy-on-write) path: the application is
// stopped only for the stream drain, the epoch cut, and the snapshot
// arming, while the shard pipeline, compression, and the Store commit
// overlap with further execution. The resulting image is byte-identical
// to a blocking checkpoint taken at the cut. CheckpointAsync uses the
// snapshot path regardless of this option; the option moves the
// blocking entry points onto it too, so existing checkpoint loops get
// the short pause without code changes.
func WithConcurrentCheckpoint() Option {
	return func(s *settings) { s.concurrent = true }
}

// WithLazyRestart routes RestartFrom and RestoreFrom through the lazy
// on-demand restore path: only image metadata and the replay log are
// read eagerly, every restored byte faults in on first access, and a
// background prefetcher drains the rest of the image while the
// application executes — time-to-first-kernel shrinks from
// O(image size) to O(replay log). The drain continues past the call's
// return (cancelled by Close or a later restart); use RestartAsync
// directly to observe or wait for it. Restored memory is byte-
// identical to an eager restart once the drain completes (DESIGN.md
// invariant 11), and every access before that sees the same bytes the
// eager path would have written.
func WithLazyRestart() Option {
	return func(s *settings) { s.lazyRestart = true }
}

// WithCheckpointRetry wraps every store-bound operation of the session
// (CheckpointTo, CheckpointAsync, RestartFrom, lazy restarts) in
// WithRetry with the given policy: transient store failures back off
// and retry instead of failing the checkpoint. The zero RetryPolicy
// selects DefaultRetryPolicy. Only the store commit retries — the
// checkpoint pipeline itself runs once (see WithRetry).
func WithCheckpointRetry(policy RetryPolicy) Option {
	return func(s *settings) { s.retry = &policy }
}

// WithASLR enables address-space randomization with the given seed.
// CRAC requires ASLR off (the default); enabling it demonstrates the
// replay-mismatch failure of paper Section 3.2.4 (see
// ErrReplayMismatch).
func WithASLR(seed int64) Option {
	return func(s *settings) { s.aslr, s.aslrSeed = true, seed }
}

// WithArenaChunks tunes the lower-half arena growth chunk sizes, passed
// through to the CUDA library (0 keeps each default).
func WithArenaChunks(device, pinned, managed uint64) Option {
	return func(s *settings) {
		s.deviceArenaChunk, s.pinnedArenaChunk, s.managedArenaChunk = device, pinned, managed
	}
}

// WithGrowthMmaps tunes how many growth mmaps the arenas may issue.
func WithGrowthMmaps(n int) Option {
	return func(s *settings) { s.growthMmaps = n }
}

// withWorkerBudget attaches the session's checkpoint pipeline to a
// shared resourcing domain. Pool wires this for every session it
// opens; it is not part of the public option surface because budgets
// only make sense with the admission control a Pool adds around them.
func withWorkerBudget(b *dmtcp.WorkerBudget) Option {
	return func(s *settings) { s.budget = b }
}

// WithKernels registers the application's kernel tables on the new
// session, making module kernels resolvable during log replay in a
// process that never executed the original RegisterFunction calls.
// Required for cross-process Restore / RestoreFrom; harmless elsewhere.
func WithKernels(reg *KernelRegistry) Option {
	return func(s *settings) { s.kernels = reg.clone() }
}
