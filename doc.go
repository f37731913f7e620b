// Package crac is a reproduction of "CRAC: Checkpoint-Restart
// Architecture for CUDA with Streams and UVM" (Jain & Cooperman,
// SC 2020) as a pure-Go library over a simulated CUDA substrate.
//
// # Sessions
//
// New launches a Session — a split-process CUDA execution: the
// application's upper half plus a lower-half helper program owning the
// (simulated) CUDA library — configured through functional options:
//
//	s, err := crac.New(crac.WithWorkers(8), crac.WithGzip(gzip.BestSpeed))
//
// The zero option set matches the paper's main configuration (Tesla
// V100, syscall fs switch, no compression, ASLR off). The application
// programs against s.Runtime(), and the same code runs natively
// (NewNative), under CRAC, or under the proxy-based baseline
// (internal/proxy) used in the paper's Table 3 comparison.
//
// # Checkpoint and restart
//
// A checkpoint drains all CUDA streams, saves the memory of active
// mallocs and the CUDA call log together with every upper-half memory
// region, and omits the CUDA library itself. A restart loads a fresh
// lower half, restores the upper half, and replays the log so all
// allocations reappear at their original addresses (the paper's
// log-and-replay design, Section 3).
//
// Checkpoints land in a Store — a named-image destination with
// all-or-nothing writes. FileStore holds one image at a fixed path,
// DirStore keeps one file per generation with an optional retention
// policy, MemStore stays in memory; remote backends implement the same
// four methods:
//
//	store, _ := crac.NewDirStore("ckpts", 3) // keep the newest 3
//	stats, err := s.CheckpointTo(ctx, store, "gen042")
//	...
//	err = s.RestartFrom(ctx, store, "gen042")             // same process
//	s2, err := crac.RestoreFrom(ctx, store, "gen042",     // new process
//	    crac.WithKernels(reg))
//
// Every operation takes a context.Context, threaded down through the
// checkpoint engine, the parallel shard pipeline, and the plugin
// drains: a deadline or cancellation aborts the image mid-write,
// surfaces as ErrCancelled (also matching the context's own error via
// errors.Is), and — through a Store — leaves no partial image behind.
// The session survives a cancelled checkpoint and keeps running.
//
// Failures classify with errors.Is against the package's typed errors:
// ErrBadImage, ErrUnsupportedVersion, ErrReplayMismatch, ErrCancelled,
// ErrSessionClosed, ErrImageNotFound, ErrCorruptImage (integrity
// damage, distinct from structural ErrBadImage), and ErrTransient
// (retry-safe store failures; see Transient).
//
// # Images as artifacts
//
// OpenImage, OpenImageFile, and OpenImageFrom parse a checkpoint image
// without restoring it. Image.Info reports the format version and the
// region/section layout; Image.Log summarizes the CUDA call log — the
// replay a restore implies and the resources active at checkpoint.
// cmd/cracinspect renders exactly this surface. For cross-process
// restores, a KernelRegistry (passed via WithKernels) resolves kernel
// names during replay, standing in for device code in the restored
// application's text segment.
//
// # Incremental checkpoints
//
// WithIncremental turns repeated CheckpointTo calls into a delta
// chain: a full v3 base image, then up to n deltas carrying only the
// memory pages and allocation bytes written since their parent —
// page-granular write tracking for upper-half regions, content-hashed
// shards for plugin sections, and UVM-aware skipping of CPU-resident
// managed pages untouched since the previous checkpoint. On sparse
// workloads a delta is typically an order of magnitude smaller (and
// faster to write) than a full image:
//
//	s, _ := crac.New(crac.WithIncremental(8)) // ≤8 deltas per base
//	store, _ := crac.NewDirStore("ckpts", 4)  // Keep never orphans a chain
//	for i := 0; ; i++ {
//	    ... run the workload ...
//	    s.CheckpointTo(ctx, store, fmt.Sprintf("gen%03d", i))
//	}
//	...
//	s2, err := crac.RestoreFrom(ctx, store, "gen042") // materializes base+deltas
//
// Deltas name their parent image, and RestartFrom / RestoreFrom /
// OpenImageFrom follow the lineage through the same Store
// transparently; a delta opened outside its store still parses for
// inspection but restores only with ErrDeltaChain. A restart breaks
// the chain (the next checkpoint is a base), and DirStore retention
// keeps every ancestor a retained image needs. Image.Info reports a
// delta's depth, parent, and dirty ratio; cracinspect prints them.
//
// # Concurrent checkpoints
//
// CheckpointAsync shrinks the application-visible pause to the epoch
// cut: the session stops only for the stream drain and the arming of a
// copy-on-write snapshot (O(metadata)), then the image write and the
// Store commit overlap with further execution. The committed image is
// byte-identical to a blocking checkpoint taken at the cut, no matter
// how hard the application mutates memory during the overlap:
//
//	p, err := s.CheckpointAsync(ctx, store, "gen042")
//	if err != nil { ... }           // pause is already over here
//	... keep serving traffic ...
//	stats, err := p.Wait()          // commit point
//	fmt.Println(stats.PauseDuration, "paused of", stats.Duration)
//
// Only one checkpoint may be in flight (ErrCheckpointInFlight
// otherwise); a failed or cancelled overlapped checkpoint leaves no
// partial image and releases every retained copy-on-write page. The
// ctx passed to CheckpointAsync governs the overlapped write too — keep
// it live until Wait reports completion (cancelling it aborts the
// in-flight image).
// WithConcurrentCheckpoint reroutes the blocking Checkpoint and
// CheckpointTo onto the same path, so existing checkpoint loops get
// the short pause without code changes, and Stats.PauseDuration splits
// the stop-the-world window from the overlapped WriteDuration. For a
// precise cut, bracket the arming with the (now real) Quiesce/Resume
// pair, which gates kernel launches and memory writes until resumed.
//
// # Lazy restart
//
// RestartAsync turns restore latency into time-to-first-kernel: the
// visible phase reads only the image metadata and the replay log,
// rebuilds the lower half, and maps every restored byte cold — the
// application (and its kernels) run immediately, faulting image shards
// in on first access, while a background prefetcher drains the rest of
// the image concurrently (device memory first, managed UVM pages
// last). On the standard workload this is an order of magnitude faster
// to first kernel than an eager restart:
//
//	p, err := s.RestartAsync(ctx, store, "gen042")
//	if err != nil { ... }            // the session is already executing
//	... serve traffic; cold memory faults in on demand ...
//	stats, err := p.Wait()           // background drain finished
//	fmt.Println(stats.RestoreVisibleDuration, "visible of", stats.RestoreDuration)
//
// Once the drain completes, memory is byte-identical to an eager
// restart of the same image (DESIGN.md invariant 11); before that,
// every access sees the same bytes through the fault path. Delta
// chains restore shard-by-shard from the nearest ancestor that owns
// each shard. Cancelling ctx stops only the prefetcher — the session
// stays fully usable (faults keep materializing) and restartable.
// WithLazyRestart reroutes RestartFrom and RestoreFrom onto the same
// path for existing code.
//
// # Live migration
//
// Migrate moves a running session onto a fresh one — typically with
// the destination store served by another host over the netstore
// protocol (NewHTTPStore / ServeStore). Pre-copy rounds stream
// concurrent delta checkpoints to the destination while the source
// keeps executing; when the dirty rate converges (or plateaus) the
// source is quiesced, a final delta is cut under the pause into a
// source-local store, and the destination session activates lazily —
// reading the pre-copied images locally and post-copy faulting the
// final cut across the wire while a background tail replicates it
// over and clears the source:
//
//	dst, _ := crac.NewHTTPStore("http://ckpt-host:9120")
//	src := crac.NewMemStore()                // final-cut staging
//	m, err := crac.Migrate(ctx, s, src, dst,
//	    crac.WithMigrateRounds(6))
//	if err != nil { ... }                    // source still resumable
//	fmt.Println(m.Report.Downtime, "down,",  // quiesce -> dest executing
//	    m.Report.PreCopyBytes, "pre-copied over",
//	    len(m.Report.Rounds)-1, "rounds")
//	... m.Dest is executing; serve from it ...
//	err = m.Wait()                           // post-copy tail drained:
//	                                         // dst holds the whole chain
//
// The migrated session's memory is byte-identical to a blocking
// checkpoint taken at the final cut. The source is left quiesced —
// resume it to fail back, close it to complete the handoff
// (WithMigrateCloseSource does the latter automatically). Network
// failures classify through Transient, so WithRetry composes around
// an HTTP store; cmd/cracmigrate packages both roles as a CLI.
//
// # Content-addressed storage and compaction
//
// NewCASStore wraps any Store with chunk-level deduplication: images
// become small manifests, shard payloads are stored once per unique
// content (SHA-256 keyed), and identical state across generations,
// sessions, and fleets is stored — and, over an HTTP destination that
// answers the batch-exists probe, transferred — only once:
//
//	cs := crac.NewCASStore(backing)          // any Store, local or HTTP
//	_, err := s.CheckpointTo(ctx, cs, "gen042") // manifest + novel chunks
//	...
//	rep, err := crac.DedupReport(ctx, cs)    // cracinspect -dedup
//	fmt.Printf("%.1fx dedup over %d chunks\n", rep.Ratio(), rep.Chunks)
//	_, err = cs.GC(ctx)                      // sweep unreferenced chunks
//
// Reads reconstruct the original bytes exactly (lazy restart's random
// access included), List hides the chunk namespace, and GC never
// touches a chunk a live manifest references.
//
// Compact squashes a delta chain's base + k deltas into one
// self-contained base from stored bytes alone — no session, no
// quiesce, safe while the writing session keeps checkpointing — then
// deletes the squashed ancestors no other lineage needs:
//
//	st, err := crac.Compact(ctx, store, "gen042")
//	fmt.Println("depth", st.Depth, "freed", st.Deleted)
//
// The compacted tip restores byte-identically to the chain it
// replaced and keeps the identity live deltas bind to.
// SupervisorConfig.CompactAfter runs it automatically whenever the
// chain depth reaches the bound.
//
// # Fault tolerance
//
// Every v2/v3 image ends in a whole-image checksum trailer, checked as
// the image is read (Info reports Verified); Image.Verify, VerifyChain
// and Scrub re-check stored images — Scrub quarantines corrupt images
// and the deltas their corruption condemns, and RepairChain re-bases a
// broken lineage. Flaky stores wrap with WithRetry (or per-session
// WithCheckpointRetry), which retries transiently failing operations
// with bounded exponential backoff — the checkpoint pipeline itself
// runs exactly once per attempt. Supervisor composes all of it into a
// CRAFT-style restart loop: periodic checkpoints, failure detection,
// and automatic restart from the newest generation whose whole chain
// verifies:
//
//	sv, err := crac.NewSupervisor(crac.SupervisorConfig{
//	    Factory: newAppSession,          // a fresh session per process
//	    Store:   store,
//	    Retry:   crac.DefaultRetryPolicy(),
//	    Interval: time.Minute,
//	})
//	if err != nil { ... }
//	go sv.Run(ctx)                       // checkpoint every Interval
//	...
//	sv.ReportFailure(err)                // crash detected: next cycle
//	                                     // restarts from the newest
//	                                     // verified image
//	fmt.Println(sv.Stats().LastMTTR)
//
// A corrupt tip falls back generation by generation; when nothing
// intact remains the supervisor cold-starts a fresh factory session.
// crac.NewFaultStore injects deterministic store faults (transient and
// permanent errors, torn writes, bit flips, latency) for testing, and
// cracrun -verify/-scrub plus cracinspect -verify surface the
// integrity checks on the command line.
//
// # Multi-tenant pools
//
// Pool multiplexes many sessions over one Store for fleet-level
// serving: admission control and per-tenant quotas (sessions,
// in-flight checkpoints, stored bytes), one shared pipeline worker
// budget instead of per-session worker pools, and a stagger scheduler
// that admits epoch cuts against a global retained-page budget so
// concurrent copy-on-write checkpoints never stampede memory:
//
//	p, err := crac.NewPool(store,
//	    crac.WithPoolMaxSessions(1000),
//	    crac.WithPoolPageBudget(1<<16),  // pages retained across all cuts
//	    crac.WithPoolTenantDefaults(crac.TenantQuota{
//	        MaxSessions:    8,
//	        MaxStoredBytes: 256 << 20,
//	    }))
//	if err != nil { ... }
//	defer p.Close()
//
//	ps, err := p.Open("alice")           // admission + quota check
//	if errors.Is(err, crac.ErrQuotaExceeded) { ... } // tenant's own limit
//	if errors.Is(err, crac.ErrPoolSaturated) { ... } // pool full: back off, retry
//	_, err = ps.Checkpoint(ctx, "gen0")  // staggered cut, tenant-scoped name
//	err = ps.Restart(ctx, "gen0")
//
//	st := p.Stats()                      // p50/p95/p99, rejections,
//	fmt.Println(st.CheckpointP99)        // retained-page high-water mark
//
// Image names are scoped per tenant inside the shared store, stored
// bytes are metered as images stream in (an over-budget checkpoint
// aborts atomically and charges nothing), and Pool.Stats /
// Pool.TenantStats expose the latency distribution and admission
// counters per tenant and in aggregate.
//
// # Performance
//
// The checkpoint/restart data path is parallel and pipelined: region
// and allocation payloads are sharded across a worker pool while a
// single writer streams the image in deterministic order, and restores
// fan the refills out the same way. WithWorkers, WithShardSize and
// WithGzip tune it; WithWorkers(1) selects the serial reference path,
// which produces byte-identical images.
//
// # Image formats
//
// The written format is not configurable: a checkpoint that joins an
// incremental lineage (WithIncremental, store-bound) is written as a
// v3 image, every other checkpoint as a v2 image. Images in the
// retired v1 format stay readable.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper's evaluation.
package crac
