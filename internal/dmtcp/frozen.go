// The one checkpoint path: every checkpoint is a freeze followed by
// WriteFrozen.
//
//   - The freeze runs inside the stop-the-world window: the epoch cut
//     (v3) and the plugin hooks that drain the device.
//   - WriteFrozen emits the plugin sections, serializes the image
//     through the shard pipeline, and runs the Resume hooks.
//
// The two kinds of freeze differ only in what WriteFrozen reads:
//
//   - a live freeze (FreezeLive, the blocking checkpoint) runs every
//     plugin's PreCheckpoint / PreCheckpointDelta in place and leaves
//     WriteFrozen reading the live address space, so the application
//     stays stopped until the write returns;
//   - a snapshot freeze (FreezeCheckpoint, the concurrent checkpoint)
//     runs only the SnapshotPlugins' O(metadata) capture and arms a
//     copy-on-write snapshot, so the application may resume at once
//     and the write overlaps its execution.
//
// A snapshot checkpoint's image is byte-identical to the live
// checkpoint at its freeze point, no matter how hard the application
// mutates memory during the overlap (DESIGN.md invariant 10).
package dmtcp

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/addrspace"
)

// EmitFunc contributes one frozen plugin's sections to a checkpoint
// image. It runs outside the stop-the-world window, possibly
// concurrently with the application, and must read memory only through
// view — never through the live address space.
type EmitFunc func(ctx context.Context, view addrspace.View, sections *SectionMap) error

// SnapshotPlugin is the optional extension of Plugin for concurrent
// checkpoints. FreezeCheckpoint replaces PreCheckpoint /
// PreCheckpointDelta in the snapshot freeze: it runs inside the
// stop-the-world window and must capture every non-memory input of the
// checkpoint (call-log prefix, active sets, epoch cuts) — quickly. The
// returned EmitFunc produces the plugin's sections later, from the
// capture plus the memory view. since is the parent checkpoint's epoch
// cut (0 for a base); incremental selects the v3 section encoding.
//
// Plugins that do not implement SnapshotPlugin still work under a
// snapshot freeze: their full PreCheckpoint hook runs inside the pause
// window against the live space, which is correct but pays the drain
// cost in the pause.
type SnapshotPlugin interface {
	Plugin
	FreezeCheckpoint(since uint64, incremental bool) (EmitFunc, error)
}

// frozenEmit is one plugin's contribution to a frozen checkpoint:
// either a deferred emit function, or sections its PreCheckpoint hook
// already produced in the pause window.
type frozenEmit struct {
	plugin Plugin
	emit   EmitFunc
	pre    *SectionMap
}

// Frozen is a checkpoint captured in the stop-the-world window, ready
// to be written. The caller must Release it exactly once, after
// WriteFrozen (or instead of it, when abandoning the checkpoint) —
// releasing drops every copy-on-write page a snapshot retained.
type Frozen struct {
	view     addrspace.View      // what the write reads: the snapshot or the live space
	snap     *addrspace.Snapshot // nil for a live freeze
	v3       bool
	cut      uint64
	since    uint64
	prev     *DeltaState
	selfName string
	emits    []frozenEmit
	start    time.Time
	hookDur  time.Duration // PreCheckpoint hooks run in place by the freeze
}

// FreezeCheckpoint is the concurrent checkpoint's freeze: it takes the
// epoch cut (v3), runs the plugin freeze hooks (draining the device),
// and arms the copy-on-write snapshot WriteFrozen reads. incremental
// forces the v3 format (a chain base when prev is nil); prev and
// selfName carry the lineage exactly as in CheckpointDelta. On return
// the application may resume: everything the image needs is pinned.
func (e *Engine) FreezeCheckpoint(ctx context.Context, space *addrspace.Space, incremental bool, prev *DeltaState, selfName string) (*Frozen, error) {
	return e.freeze(ctx, space, incremental, prev, selfName, true)
}

// FreezeLive is the blocking checkpoint's freeze: FreezeCheckpoint's
// contract, except that every plugin's PreCheckpoint (or
// PreCheckpointDelta, for v3) runs in place and no snapshot is armed —
// WriteFrozen reads the live space, so the checkpoint's whole duration
// is its pause.
func (e *Engine) FreezeLive(ctx context.Context, space *addrspace.Space, incremental bool, prev *DeltaState, selfName string) (*Frozen, error) {
	return e.freeze(ctx, space, incremental, prev, selfName, false)
}

func (e *Engine) freeze(ctx context.Context, space *addrspace.Space, incremental bool, prev *DeltaState, selfName string, snapshot bool) (*Frozen, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fz := &Frozen{view: space, v3: incremental || prev != nil, selfName: selfName, start: time.Now()}
	// A shard-size change breaks the chain's shard grid (hashes would
	// compare different byte ranges), and a chain at the reader's depth
	// cap could never be restored: both rotate to a fresh base.
	if prev != nil && prev.ShardSize == e.shardSize() && prev.Depth+1 < maxChainDepth {
		fz.prev = prev
		fz.since = prev.Cut
	}
	if fz.v3 {
		// The cut is taken before the drain hooks, mirroring the
		// plugin's UVM cut: any write that races the drain or the image
		// write — even one the payload happens to capture — is stamped
		// above the cut and re-emitted by the next delta. Taking it
		// later would open a window (between a plugin's memory reads and
		// the cut) whose writes are stamped at the cut value, reported
		// clean next time, and lost.
		fz.cut = space.CutEpoch()
	}
	for _, p := range e.plugins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sp, ok := p.(SnapshotPlugin); ok && snapshot {
			emit, err := sp.FreezeCheckpoint(fz.since, fz.v3)
			if err != nil {
				return nil, fmt.Errorf("dmtcp: plugin %s freeze: %w", p.Name(), err)
			}
			fz.emits = append(fz.emits, frozenEmit{plugin: p, emit: emit})
			continue
		}
		// The plugin's whole precheckpoint hook runs here, against the
		// live space — its sections are frozen by construction.
		hookStart := time.Now()
		pre := NewSectionMap()
		var err error
		if dp, ok := p.(DeltaPlugin); ok && fz.v3 {
			err = dp.PreCheckpointDelta(ctx, pre, fz.since)
		} else {
			err = p.PreCheckpoint(ctx, pre)
		}
		if err != nil {
			return nil, fmt.Errorf("dmtcp: plugin %s precheckpoint: %w", p.Name(), err)
		}
		fz.hookDur += time.Since(hookStart)
		fz.emits = append(fz.emits, frozenEmit{plugin: p, pre: pre})
	}
	if snapshot {
		// Arm the snapshot after the drain hooks, so the image includes
		// the memory effects the drain flushed — the same ordering a
		// live checkpoint observes.
		fz.snap = space.Snapshot()
		fz.view = fz.snap
	}
	return fz, nil
}

// Cut returns the address-space epoch cut the checkpoint was frozen at
// (0 for v2 images, which take no cut).
func (fz *Frozen) Cut() uint64 { return fz.cut }

// StartedAt backdates the checkpoint's wall clock to t (ignored unless
// earlier than the freeze entry). Callers that spent time reaching the
// freeze — waiting out gates, draining the device — charge it here so
// Stats.Duration always contains Stats.PauseDuration.
func (fz *Frozen) StartedAt(t time.Time) {
	if t.Before(fz.start) {
		fz.start = t
	}
}

// Release drops every copy-on-write page the frozen checkpoint pinned.
// Idempotent; must be called once the image write finished or was
// abandoned.
func (fz *Frozen) Release() {
	if fz.snap != nil {
		fz.snap.Release()
	}
}

// WriteFrozen serializes a frozen checkpoint to w — a v3 image when it
// joins a lineage (incremental, or with a parent), v2 otherwise —
// reading all memory through the freeze's view, then runs the Resume
// hooks. The returned DeltaState (v3 only) follows the CheckpointDelta
// contract: commit it only once the image durably landed. A live
// checkpoint reports PauseDuration == Duration; a snapshot
// checkpoint's PauseDuration is left zero — the caller measured the
// pause and owns that split.
func (e *Engine) WriteFrozen(ctx context.Context, w io.Writer, fz *Frozen) (Stats, *DeltaState, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hookStart := time.Now()
	sections := NewSectionMap()
	for _, fe := range fz.emits {
		if err := ctx.Err(); err != nil {
			return Stats{}, nil, err
		}
		if fe.emit != nil {
			if err := fe.emit(ctx, fz.view, sections); err != nil {
				return Stats{}, nil, fmt.Errorf("dmtcp: plugin %s emit: %w", fe.plugin.Name(), err)
			}
			continue
		}
		for _, name := range fe.pre.Names() {
			data, _ := fe.pre.Get(name)
			sections.Add(name, data)
			if fe.pre.Opaque(name) {
				sections.MarkOpaque(name)
			}
		}
	}
	hookDur := fz.hookDur + time.Since(hookStart)

	// Only upper-half regions enter the image. This relies on CRAC's own
	// region attribution, not the merged maps view (Section 3.2.2).
	regions := fz.view.RegionsIn(addrspace.HalfUpper)
	st := Stats{Regions: len(regions), Delta: fz.prev != nil}
	if fz.prev != nil {
		st.DeltaDepth = fz.prev.Depth + 1
	}

	writeStart := time.Now()
	// Buffer the image stream: header and frame writes are a few bytes
	// each and must not hit the underlying writer (often a file)
	// directly. The trailer writer under the buffer checksums every
	// body byte for the integrity trailer.
	tw := newTrailerWriter(w)
	bw := bufio.NewWriterSize(tw, 256<<10)
	var state *DeltaState
	var err error
	if fz.v3 {
		state, err = e.writeImageV3(ctx, bw, fz.view, regions, sections, fz.prev, fz.selfName, fz.cut, fz.since, &st)
	} else {
		err = e.writeImageV2(ctx, bw, fz.view, regions, sections, &st)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tw.Finish()
	}
	st.WriteDuration = time.Since(writeStart)
	if err != nil {
		return st, nil, err
	}

	resumeStart := time.Now()
	for i := len(e.plugins) - 1; i >= 0; i-- {
		if err := e.plugins[i].Resume(); err != nil {
			return st, nil, fmt.Errorf("dmtcp: plugin %s resume: %w", e.plugins[i].Name(), err)
		}
	}
	st.HookDuration = hookDur + time.Since(resumeStart)
	st.Duration = time.Since(fz.start)
	if fz.snap == nil {
		// A live checkpoint stops the world for its whole duration.
		st.PauseDuration = st.Duration
	}
	return st, state, nil
}
