package crac

import (
	"context"
	"testing"
)

// TestStatsContract pins what Stats reports on every checkpoint mode,
// {blocking, concurrent} × {full, incremental}: a blocking checkpoint
// pauses for its whole duration and splits it into hook and write
// time; a concurrent one pauses for a nonzero part of it; the second
// checkpoint of an incremental chain is a depth-1 delta; and no
// copy-on-write page outlives any checkpoint.
func TestStatsContract(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []struct {
		name       string
		concurrent bool
		opts       []Option
	}{
		{"blocking/full", false, nil},
		{"blocking/incremental", false, []Option{WithIncremental(4)}},
		{"concurrent/full", true, []Option{WithConcurrentCheckpoint()}},
		{"concurrent/incremental", true, []Option{WithConcurrentCheckpoint(), WithIncremental(4)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s, err := New(append([]Option{WithWorkers(0)}, mode.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			w := newIncrWorkload(t, s.Runtime())
			store := NewMemStore()
			incremental := resolve(mode.opts).incremental > 0
			for i, name := range []string{"c0", "c1"} {
				w.step(t, i+1)
				st, err := s.CheckpointTo(ctx, store, name)
				if err != nil {
					t.Fatal(err)
				}
				if mode.concurrent {
					if st.PauseDuration <= 0 || st.PauseDuration > st.Duration {
						t.Fatalf("%s: pause %v not in (0, duration %v]", name, st.PauseDuration, st.Duration)
					}
				} else {
					if st.PauseDuration != st.Duration {
						t.Fatalf("%s: blocking pause %v != duration %v", name, st.PauseDuration, st.Duration)
					}
					if st.HookDuration <= 0 || st.HookDuration+st.WriteDuration > st.Duration {
						t.Fatalf("%s: hook %v + write %v vs duration %v", name, st.HookDuration, st.WriteDuration, st.Duration)
					}
				}
				wantDelta := incremental && i == 1
				if st.Delta != wantDelta || (st.DeltaDepth == 1) != wantDelta {
					t.Fatalf("%s: Delta=%v DeltaDepth=%d, want delta %v", name, st.Delta, st.DeltaDepth, wantDelta)
				}
				if n := s.Space().RetainedPages(); n != 0 {
					t.Fatalf("%s: %d copy-on-write pages retained", name, n)
				}
			}
		})
	}
}
