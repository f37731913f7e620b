package main

import (
	"context"
	"io"
	"path/filepath"
	"testing"

	crac "repro"
	"repro/internal/faults"
)

// census runs only the workload's fixed census prefix.
func census(t *testing.T, workload string, seed int64, trace bool, wrap func(crac.Store) crac.Store) report {
	return run(censusOptions(t, workload, seed, trace, wrap))
}

func censusOptions(t *testing.T, workload string, seed int64, trace bool, wrap func(crac.Store) crac.Store) options {
	return options{workload: workload, seed: seed, seconds: 0.01, trace: trace, setups: 1, wrapStore: wrap,
		spanPath: filepath.Join(t.TempDir(), "spans.jsonl")}
}

// A corrupted image must fail the run: every Put flips one bit, so the
// first restart either reports a typed error or restores bytes that
// differ from the CRC taken at the cut.
func TestCorruptImageFailsRun(t *testing.T) {
	for _, w := range []string{"full-eager", "delta-cow", "pool-churn"} {
		t.Run(w, func(t *testing.T) {
			flip := func(s crac.Store) crac.Store {
				return crac.NewFaultStore(s, faults.New(faults.Config{Seed: 1, Put: faults.Rates{BitFlip: 1}}))
			}
			rep := census(t, w, 1, false, flip)
			if rep.result.Correct || rep.result.Failed == 0 {
				t.Fatalf("corrupted images passed: %+v %v", rep.result, rep.notes)
			}
		})
	}
}

// delta-cow's application writes on while the tip cut is in flight, so
// the live state at the restart differs from the cut: a restore that
// returned the live state, as a cut that let those writes through
// would, must fail the run.
func TestLiveStateAtRestartFailsRun(t *testing.T) {
	o := censusOptions(t, "delta-cow", 1, false, nil)
	o.liveAtRestart = true
	rep := run(o)
	if rep.result.Correct || rep.result.Failed == 0 {
		t.Fatalf("restoring the live state passed: %+v %v", rep.result, rep.notes)
	}
}

// The deterministic counters repeat for a seed, and a traced run gives
// the same counters as an untraced one: the decorators do not change
// the code path.
func TestDeterministicCounters(t *testing.T) {
	for _, w := range []string{"full-eager", "delta-cow", "pool-churn"} {
		t.Run(w, func(t *testing.T) {
			a := census(t, w, 5, false, nil)
			b := census(t, w, 5, false, nil)
			traced := census(t, w, 5, true, nil)
			for _, rep := range []report{a, b, traced} {
				if !rep.result.Correct {
					t.Fatalf("run failed: %+v %v", rep.result, rep.notes)
				}
			}
			want := a.det[0]
			if want.StoredMiBPerCkpt == 0 || want.CallsPerStep == 0 || want.EntriesPerRestart == 0 {
				t.Fatalf("counters not measured: %+v", want)
			}
			for _, got := range append(b.det, traced.det...) {
				if got != want {
					t.Fatalf("counters differ: %+v, want %+v", got, want)
				}
			}
		})
	}
}

// bareStore has only the four Store methods.
type bareStore struct{ crac.Store }

func TestTraceStoreCapabilities(t *testing.T) {
	mem := crac.NewMemStore()
	fault := crac.NewFaultStore(mem, faults.New(faults.Config{}))
	// Nothing listens there; building the store opens no connection.
	http, err := crac.NewHTTPStore("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                     string
		inner                    crac.Store
		ra, count, batch, single bool
	}{
		{"mem", mem, true, true, false, false},
		{"fault", fault, true, false, false, true},
		{"cas", crac.NewCASStore(mem), true, false, false, false},
		{"http", http, true, false, true, false},
		{"bare", bareStore{mem}, false, false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, _ := traceStore(tc.inner, newRecorder(), "store", true, nil)
			_, ra := st.(crac.RandomAccessStore)
			_, count := st.(crac.CountingStore)
			_, batch := st.(crac.BatchExister)
			_, single := st.(crac.SingleImageStore)
			if ra != tc.ra || count != tc.count || batch != tc.batch || single != tc.single {
				t.Fatalf("capabilities ra=%v count=%v batch=%v single=%v, want %v %v %v %v",
					ra, count, batch, single, tc.ra, tc.count, tc.batch, tc.single)
			}
		})
	}
}

// Self time excludes the sink: an encode span's self time plus its sink
// children's time is the span's duration.
func TestEncodeSelfTime(t *testing.T) {
	rec := newRecorder()
	st, _ := traceStore(crac.NewMemStore(), rec, "store", true, nil)
	err := st.Put(context.Background(), "img", func(w io.Writer) error {
		for i := 0; i < 4; i++ {
			if _, err := w.Write(make([]byte, 1<<20)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := indexSpans(rec.snapshot())
	enc := ix.named("dmtcp.encode")
	sinks := ix.named("store.sink")
	if len(enc) != 1 || len(sinks) != 4 || len(ix.named("store.put")) != 1 {
		t.Fatalf("spans: %d encode, %d sink", len(enc), len(sinks))
	}
	var sinkTime int64
	for _, s := range sinks {
		if s.Parent != enc[0].ID || s.Op != enc[0].Op {
			t.Fatalf("sink span %+v not under encode %+v", s, enc[0])
		}
		sinkTime += int64(s.dur())
	}
	if got := int64(ix.self(enc[0])) + sinkTime; got != int64(enc[0].dur()) {
		t.Fatalf("self %v + sinks %v != %v", ix.self(enc[0]), sinkTime, enc[0].dur())
	}
}
