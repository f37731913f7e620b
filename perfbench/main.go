// Command perfbench is the repository's benchmark. It drives one named
// workload through the public crac API (Session, Pool, Store) and the
// crt.Runtime the application programs against, checks every restart
// byte for byte against a CRC or shadow copy taken at the cut, and
// prints its metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload full-eager --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end
// metrics. With --trace 1 it measures the workload untraced for a
// quarter of the time, traced for half and untraced for the last
// quarter, reports the per-layer metrics from the traced half (the Go
// runtime's figures from the untraced quarters), writes
// its spans under .bench_build/spans, and fails if the deterministic
// counters of the three differ.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	crac "repro"
)

const (
	// memoryLimit is the Go heap's soft limit (debug.SetMemoryLimit).
	memoryLimit = 1 << 30
	// setupsPerRun set-ups are timed per run; setup_s is their median.
	setupsPerRun = 10
	// warmup is how long the workload runs unmeasured after its census.
	warmup = 3 * time.Second
)

// env is what a workload receives: its seed, the recorder (nil when
// untraced), and two test hooks: a store wrapper to inject faults, and
// liveAtRestart, which makes delta-cow restore the live state at the
// restart instead of the cut, as a cut that let later writes through
// would.
type env struct {
	seed          int64
	rec           *recorder
	wrapStore     func(crac.Store) crac.Store
	liveAtRestart bool
}

// workload is one named load shape. setup builds its state (timed as
// set-up); census runs the workload's fixed first stretch and records
// the deterministic counters; run drives it on until the deadline;
// close releases everything. An operation that fails is counted in the
// phase and ends census or run; a returned error is the benchmark's
// own.
type workload interface {
	setup(e *env, p *phase) error
	census(ctx context.Context, p *phase) error
	run(ctx context.Context, p *phase, deadline time.Time) error
	close()
}

var workloads = map[string]func() workload{
	"full-eager": func() workload { return &fullEager{} },
	"delta-cow":  func() workload { return &deltaCow{} },
	"pool-churn": func() workload { return &poolChurn{} },
}

// det holds the counters that must repeat exactly for a seed, taken
// over each workload's fixed census prefix.
type det struct {
	StoredMiBPerCkpt  float64 `json:"stored_mib_per_ckpt"`
	ShardsWritten     float64 `json:"dmtcp.shards_written"`
	EntriesPerRestart float64 `json:"replaylog.entries_per_restart"`
	CallsPerStep      float64 `json:"cracrt.calls_per_step"`
}

// phase collects what one measured run of a workload observed.
type phase struct {
	setupS []float64

	step, pause, ckpt, restart, ttfk samples
	ops                              atomic.Int64
	attempted, failed                atomic.Int64
	elapsed                          time.Duration
	// think is the time clients paused between operations, summed
	// over the clients of a closed loop that pauses.
	think   atomic.Int64
	clients int

	errMu    sync.Mutex
	firstErr error

	det det

	// Per-layer figures read from the API's own reports.
	writeMs, hookMs, payloadMiB, shards samples
	restoreVisible, restoreBackground   samples
	coldMiB, mmaps, newMs               samples
	retainedPeak                        atomic.Int64
	pool                                crac.PoolStats
	dedup                               *crac.DedupStats
	chunksNew                           int64
	ckptCopyGBps                        samples
	mem                                 memDelta

	stores []*tracedStore
}

// fail counts a failed operation and keeps the first error.
func (p *phase) fail(err error) {
	p.failed.Add(1)
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
}

func (p *phase) err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

// ckptStats records the layer figures of one committed checkpoint.
func (p *phase) ckptStats(st crac.Stats) {
	p.writeMs.add(st.WriteDuration)
	p.hookMs.add(st.HookDuration)
	payload := st.PayloadWritten
	if payload == 0 && !st.Delta {
		payload = st.RegionBytes + st.SectionBytes
	}
	p.payloadMiB.addMs(float64(payload) / (1 << 20))
	p.shards.addMs(float64(st.ShardsWritten))
	if st.Duration > 0 && !st.Delta {
		p.ckptCopyGBps.addMs(float64(payload) / st.Duration.Seconds() / 1e9)
	}
}

// runPhase measures the workload for dur. It times `setups` set-ups,
// half before the measured run (keeping the last as the one measured)
// and half after it, so set-up time is sampled at both ends of the run.
// Before the measured run come the census and then warmup more of the
// workload, both unmeasured: caches fill and the heap settles first.
func runPhase(name string, e *env, setups int, warmup, dur time.Duration) (*phase, error) {
	p := &phase{}
	setup := func() (workload, error) {
		w := workloads[name]()
		runtime.GC()
		start := time.Now()
		if err := w.setup(e, p); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
		return w, nil
	}
	var w workload
	for i := 0; i < (setups+1)/2; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = setup(); err != nil {
			return p, err
		}
	}
	ctx := context.Background()
	pre := &phase{}
	err := w.census(ctx, pre)
	if err == nil && pre.err() == nil {
		err = w.run(ctx, pre, time.Now().Add(warmup))
	}
	p.det = pre.det
	p.attempted.Add(pre.attempted.Load())
	p.failed.Add(pre.failed.Load())
	p.firstErr = pre.err()
	if err != nil || p.firstErr != nil {
		w.close()
		return p, err
	}
	e.rec.reset()
	for _, t := range p.stores {
		t.resetCounters()
	}
	runtime.GC()
	before := readMem()
	start := time.Now()
	err = w.run(ctx, p, start.Add(dur))
	p.elapsed = time.Since(start)
	p.mem = memSince(before)
	w.close()
	if err != nil {
		return p, err
	}
	for i := (setups + 1) / 2; i < setups; i++ {
		w, err := setup()
		if err != nil {
			return p, err
		}
		w.close()
	}
	return p, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one printed metric: its value, unit, direction and the number
// of samples behind it.
type row struct {
	name   string
	value  float64
	unit   string
	better string
	n      int
}

func endToEnd(p *phase) []row {
	ops := p.ops.Load()
	return []row{
		{"setup_s", quantile(append([]float64(nil), p.setupS...), 0.5), "s", "lower", len(p.setupS)},
		{"step_ms_p50", p.step.q(0.5), "ms", "lower", p.step.n()},
		{"step_ms_p95", p.step.q(0.95), "ms", "lower", p.step.n()},
		{"ckpt_pause_ms_p50", p.pause.q(0.5), "ms", "lower", p.pause.n()},
		{"ckpt_pause_ms_p95", p.pause.q(0.95), "ms", "lower", p.pause.n()},
		{"ckpt_ms_p50", p.ckpt.q(0.5), "ms", "lower", p.ckpt.n()},
		{"ckpt_ms_p95", p.ckpt.q(0.95), "ms", "lower", p.ckpt.n()},
		{"ckpt_ms_p99", p.ckpt.q(0.99), "ms", "lower", p.ckpt.n()},
		{"restart_ms_p50", p.restart.q(0.5), "ms", "lower", p.restart.n()},
		{"restart_ms_p95", p.restart.q(0.95), "ms", "lower", p.restart.n()},
		{"ttfk_ms_p50", p.ttfk.q(0.5), "ms", "lower", p.ttfk.n()},
		{"ops_per_s", opsRate(p), "1/s", "higher", int(ops)},
		{"stored_mib_per_ckpt", p.det.StoredMiBPerCkpt, "MiB", "lower", 1},
	}
}

// opsRate is operations per second of the clients' busy time: the
// elapsed time less the mean pause per client.
func opsRate(p *phase) float64 {
	busy := p.elapsed
	if p.clients > 0 {
		busy -= time.Duration(p.think.Load() / int64(p.clients))
	}
	return float64(p.ops.Load()) / busy.Seconds()
}

// perLayer derives the per-layer metrics of a traced phase and the
// untraced phases around it. The Go runtime's figures come from the
// untraced phases, so the tracer's own allocations do not count.
func perLayer(p *phase, untraced []*phase, rec *recorder, ceiling float64) []row {
	ix := indexSpans(rec.snapshot())
	var mem memDelta
	var untracedOps int64
	var untracedRate float64
	for _, u := range untraced {
		mem.allocBytes += u.mem.allocBytes
		mem.allocs += u.mem.allocs
		mem.gcCycles += u.mem.gcCycles
		mem.gcPause += u.mem.gcPause
		untracedOps += u.ops.Load()
		untracedRate += opsRate(u) / float64(len(untraced))
	}
	ops := float64(max(untracedOps, 1))
	nCkpt := float64(max(p.ckpt.n(), 1))
	nRestart := float64(max(p.restart.n(), 1))

	var encodeSelf []float64
	for _, s := range ix.named("dmtcp.encode") {
		encodeSelf = append(encodeSelf, float64(ix.self(s))/1e6)
	}
	// Store reads per restart: every read span in a restart operation,
	// including a lazy restart's background drain.
	var readMs, getAts []float64
	for _, r := range ix.named("restart") {
		readMs = append(readMs, sum(durationsMs(ix.under(r.Op, "store.read"))))
		getAts = append(getAts, float64(len(ix.under(r.Op, "store.getat"))))
	}
	var bytesRead int64
	for _, t := range p.stores {
		if t.layer == "store" {
			bytesRead += t.bytesRead.Load()
		}
	}
	var chunksDedup, dedupRatio float64
	if p.dedup != nil {
		chunksDedup = float64(p.dedup.ChunkRefs - p.dedup.Chunks)
		dedupRatio = p.dedup.Ratio()
	}
	median := func(name string) (float64, int) {
		d := durationsMs(ix.named(name))
		return quantile(d, 0.5), len(d)
	}
	overhead := 0.0 // a run too short to measure an operation has none
	if untracedRate > 0 {
		overhead = 1 - opsRate(p)/untracedRate
	}
	putMs, nPut := median("store.put")
	casPutMs, nCASPut := median("cas.put")
	launchMs, nLaunch := median("cracrt.kernel")
	memsetMs, nMemset := median("cracrt.memset")
	inflightMs, nInflight := median("cracrt.memset.inflight")
	return []row{
		{"dmtcp.encode_self_ms", quantile(encodeSelf, 0.5), "ms", "lower", len(encodeSelf)},
		{"dmtcp.write_ms", p.writeMs.q(0.5), "ms", "lower", p.writeMs.n()},
		{"dmtcp.payload_mib_per_ckpt", p.payloadMiB.mean(), "MiB", "lower", p.payloadMiB.n()},
		{"dmtcp.shards_written", p.det.ShardsWritten, "count", "lower", 1},
		{"dmtcp.restore_visible_ms", p.restoreVisible.q(0.5), "ms", "lower", p.restoreVisible.n()},
		{"dmtcp.restore_background_ms", p.restoreBackground.q(0.5), "ms", "lower", p.restoreBackground.n()},
		{"cracplugin.hook_ms", p.hookMs.q(0.5), "ms", "lower", p.hookMs.n()},
		{"store.put_ms", putMs, "ms", "lower", nPut},
		{"store.sink_ms", sum(durationsMs(ix.named("store.sink"))) / nCkpt, "ms", "lower", int(nCkpt)},
		{"store.get_mib_per_restart", float64(bytesRead) / (1 << 20) / nRestart, "MiB", "lower", int(nRestart)},
		{"store.getat_calls_per_restart", mean(getAts), "count", "lower", len(getAts)},
		{"store.read_ms", quantile(readMs, 0.5), "ms", "lower", len(readMs)},
		{"cas.put_ms", casPutMs, "ms", "lower", nCASPut},
		{"cas.chunks_new", float64(p.chunksNew) / nCkpt, "count", "lower", int(nCkpt)},
		{"cas.chunks_dedup", chunksDedup, "count", "higher", 1},
		{"cas.dedup_ratio", dedupRatio, "ratio", "higher", 1},
		{"addrspace.retained_pages_peak", float64(p.retainedPeak.Load()), "pages", "lower", 1},
		{"cracrt.memset_inflight_us_p50", inflightMs * 1000, "us", "lower", nInflight},
		{"addrspace.cold_mib_at_ttfk", p.coldMiB.q(0.5), "MiB", "lower", p.coldMiB.n()},
		{"addrspace.mmaps_per_restart", p.mmaps.mean(), "count", "lower", p.mmaps.n()},
		{"cracrt.launch_us_p50", launchMs * 1000, "us", "lower", nLaunch},
		{"cracrt.memset_us_p50", memsetMs * 1000, "us", "lower", nMemset},
		{"cracrt.calls_per_step", p.det.CallsPerStep, "count", "lower", 1},
		{"replaylog.entries_per_restart", p.det.EntriesPerRestart, "count", "lower", 1},
		{"session.new_ms_p50", p.newMs.q(0.5), "ms", "lower", p.newMs.n()},
		{"pool.waiting_peak", float64(p.pool.Waiting), "count", "lower", 1},
		{"pool.reserved_page_peak", float64(p.pool.ReservedPagePeak), "pages", "lower", 1},
		{"pool.rejections", float64(p.pool.RejectedQuota + p.pool.RejectedSaturated), "count", "lower", 1},
		{"go.alloc_mib_per_op", float64(mem.allocBytes) / (1 << 20) / ops, "MiB", "lower", int(ops)},
		{"go.allocs_per_op", float64(mem.allocs) / ops, "count", "lower", int(ops)},
		{"go.gc_cycles", float64(mem.gcCycles), "count", "lower", 1},
		{"go.gc_pause_ms", float64(mem.gcPause) / 1e6, "ms", "lower", int(mem.gcCycles)},
		{"copy_ceiling_gbps", ceiling, "GB/s", "higher", 1},
		{"ckpt_copy_efficiency", p.ckptCopyGBps.q(0.5) / ceiling, "ratio", "higher", p.ckptCopyGBps.n()},
		{"trace_overhead_frac", overhead, "ratio", "lower", 1},
	}
}

// options is one invocation's configuration.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	warmup    time.Duration
	trace     bool
	setups    int
	wrapStore func(crac.Store) crac.Store
	spanPath  string
	// liveAtRestart is env.liveAtRestart.
	liveAtRestart bool
}

// report is one invocation's outcome: the result line plus the rows
// behind it and the notes printed above it.
type report struct {
	result result
	rows   []row
	notes  []string
	det    []det
}

func run(o options) report {
	var rep report
	rep.result.Metrics = map[string]metric{}
	untraced := &env{seed: o.seed, wrapStore: o.wrapStore, liveAtRestart: o.liveAtRestart}
	dur := time.Duration(o.seconds * float64(time.Second))
	var phases []*phase
	var err error
	measure := func(e *env, setups int, d time.Duration) *phase {
		p, perr := runPhase(o.workload, e, setups, o.warmup, d)
		phases = append(phases, p)
		rep.det = append(rep.det, p.det)
		err = errors.Join(err, perr, p.err())
		return p
	}
	if !o.trace {
		rep.rows = endToEnd(measure(untraced, o.setups, dur))
	} else if a := measure(untraced, 1, dur/4); err == nil {
		// Untraced quarters on both sides of the traced half, so warm-up
		// does not count as tracing overhead.
		rec := newRecorder()
		traced := *untraced
		traced.rec = rec
		t := measure(&traced, 1, dur/2)
		if err == nil {
			b := measure(untraced, 1, dur/4)
			rep.rows = perLayer(t, []*phase{a, b}, rec, copyCeiling())
			rep.notes = append(rep.notes, fmt.Sprintf("copy ceiling buffer %d MiB (machine LLC: getconf LEVEL3_CACHE_SIZE)", ceilingBytes>>20))
			if werr := rec.writeFile(o.spanPath); werr != nil {
				err = errors.Join(err, fmt.Errorf("writing spans: %w", werr))
			} else {
				rep.notes = append(rep.notes, fmt.Sprintf("spans: %s (%d)", o.spanPath, len(rec.snapshot())))
			}
			for _, d := range rep.det[1:] {
				if d != rep.det[0] {
					err = errors.Join(err, fmt.Errorf("deterministic counters differ between untraced and traced phases: %+v", rep.det))
					break
				}
			}
		}
	}
	for _, p := range phases {
		rep.result.Attempted += p.attempted.Load()
		rep.result.Failed += p.failed.Load()
	}
	rep.result.Correct = err == nil && rep.result.Failed == 0 && rep.result.Attempted > 0
	if err != nil {
		rep.notes = append(rep.notes, "error: "+err.Error())
	}
	failedFrac := 0.0
	if rep.result.Attempted > 0 {
		failedFrac = float64(rep.result.Failed) / float64(rep.result.Attempted)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("failed_frac %.6f (%d of %d operations)", failedFrac, rep.result.Failed, rep.result.Attempted))
	for _, r := range rep.rows {
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			rep.result.Correct = false
			rep.notes = append(rep.notes, fmt.Sprintf("error: %s is not a number", r.name))
			r.value = 0
		}
		rep.result.Metrics[r.name] = metric{Value: r.value, Unit: r.unit}
	}
	return rep
}

func main() {
	o := options{setups: setupsPerRun, warmup: warmup}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: full-eager, delta-cow or pool-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", o.workload, names)
		os.Exit(2)
	}
	// A soft limit keeps the Go heap's headroom within a small shared
	// machine; the workloads' live heaps stay well below it.
	debug.SetMemoryLimit(memoryLimit)
	o.trace = trace == 1
	if o.trace {
		o.spanPath = spanFile(o.workload, o.seed)
	}
	rep := run(o)
	fmt.Printf("# workload %s seed %d trace %d\n", o.workload, o.seed, trace)
	for _, r := range rep.rows {
		fmt.Printf("%-32s %14.4f %-6s (%s is better, n=%d)\n", r.name, r.value, r.unit, r.better, r.n)
	}
	for i, d := range rep.det {
		fmt.Printf("# deterministic counters [%d]: %+v\n", i, d)
	}
	for _, n := range rep.notes {
		fmt.Printf("# %s\n", n)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.result.Correct {
		os.Exit(1)
	}
}
