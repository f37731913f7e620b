package main

import (
	"hash/crc32"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addrspace"
)

// samples is a goroutine-safe list of durations in milliseconds.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(d time.Duration) { s.addMs(float64(d) / 1e6) }

func (s *samples) addMs(ms float64) {
	s.mu.Lock()
	s.v = append(s.v, ms)
	s.mu.Unlock()
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// maxBatches is how many consecutive stretches of a run a percentile
// is taken over, at most, before their median is reported; minBeyond
// is how many samples each stretch must have beyond the percentile.
const (
	maxBatches = 5
	minBeyond  = 10
)

// q returns the q-quantile (0..1), made robust to bursts of
// interference from the machine's other tenants: the samples, in the
// order they were taken, are cut into up to maxBatches consecutive
// stretches of equal size, each with at least minBeyond samples beyond
// the quantile, and the median of the stretches' q-quantiles (linearly
// interpolated) is returned. Too few samples for two stretches give the
// plain q-quantile; none give 0.
func (s *samples) q(q float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	s.mu.Unlock()
	n := min(maxBatches, int(float64(len(v))*(1-q)/minBeyond))
	if n < 2 {
		return quantile(v, q)
	}
	per := make([]float64, n)
	for b := range per {
		per[b] = quantile(v[b*len(v)/n:(b+1)*len(v)/n], q)
	}
	return quantile(per, 0.5)
}

func (s *samples) mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return mean(s.v)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// mean is 0 for no values.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func durationsMs(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// buffer is one region of a workload's state, checked byte for byte.
type buffer struct {
	addr uint64
	size uint64
}

// stateCRC reads every buffer from the space and returns one CRC per
// buffer. It runs outside timed windows.
func stateCRC(space *addrspace.Space, bufs []buffer, scratch []byte) ([]uint32, error) {
	out := make([]uint32, len(bufs))
	for i, b := range bufs {
		p := scratch[:b.size]
		if err := space.ReadAt(b.addr, p); err != nil {
			return nil, err
		}
		out[i] = crc32.ChecksumIEEE(p)
	}
	return out, nil
}

// readState copies every buffer out of the space.
func readState(space *addrspace.Space, bufs []buffer) ([][]byte, error) {
	out := make([][]byte, len(bufs))
	for i, b := range bufs {
		out[i] = make([]byte, b.size)
		if err := space.ReadAt(b.addr, out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func equalCRC(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct {
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		allocs:     after.Mallocs - before.Mallocs,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}
