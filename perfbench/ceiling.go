package main

import "time"

// ceilingBytes is the copy ceiling's buffer: the full-eager state size,
// so the ceiling and the checkpoint move the same working set. It is
// far below the 300 MiB last-level cache `getconf LEVEL3_CACHE_SIZE`
// reports on the 2-vCPU reference VM, so the ceiling is a cache-warm
// copy rate, the most a checkpoint of this state could reach.
const ceilingBytes = 16 << 20

// copyCeiling measures the same-run copy() rate in GB/s: the median of
// repeated copies of one ceilingBytes buffer into another.
func copyCeiling() float64 {
	src := make([]byte, ceilingBytes)
	dst := make([]byte, ceilingBytes)
	for i := range src {
		src[i] = byte(i * 7)
	}
	copy(dst, src)
	rates := make([]float64, 0, 25)
	for i := 0; i < cap(rates); i++ {
		start := time.Now()
		copy(dst, src)
		rates = append(rates, float64(ceilingBytes)/time.Since(start).Seconds()/1e9)
	}
	return quantile(rates, 0.5)
}
