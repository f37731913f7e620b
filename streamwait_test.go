package crac

import (
	"context"
	"testing"

	"repro/internal/crt"
	"repro/internal/cuda"
	"repro/internal/gpusim"
	"repro/internal/proxy"
	"repro/internal/trace"
)

// waitEventRig runs a cross-stream dependency through any binding:
// stream A records an event after writing a value; stream B waits on the
// event and then doubles it. The result proves B observed A's write.
func waitEventRig(t *testing.T, rt crt.Runtime) {
	t.Helper()
	fat, err := rt.RegisterFatBinary("sync-test")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterFunction(fat, "set", func(ctx *cuda.DevCtx, _ gpusim.LaunchConfig, args []uint64) {
		ctx.Float32s(args[0], 1)[0] = 21
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterFunction(fat, "double", func(ctx *cuda.DevCtx, _ gpusim.LaunchConfig, args []uint64) {
		ctx.Float32s(args[0], 1)[0] *= 2
	}); err != nil {
		t.Fatal(err)
	}
	d, err := rt.Malloc(4)
	if err != nil {
		t.Fatal(err)
	}
	sA, err := rt.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	sB, err := rt.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := rt.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	one := crt.LaunchConfig{Grid: crt.Dim3{X: 1}, Block: crt.Dim3{X: 1}}
	if err := rt.LaunchKernel(fat, "set", one, sA, uint64(d)); err != nil {
		t.Fatal(err)
	}
	if err := rt.EventRecord(ev, sA); err != nil {
		t.Fatal(err)
	}
	if err := rt.StreamWaitEvent(sB, ev); err != nil {
		t.Fatal(err)
	}
	if err := rt.LaunchKernel(fat, "double", one, sB, uint64(d)); err != nil {
		t.Fatal(err)
	}
	if err := rt.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	host, err := rt.AppAlloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Memcpy(host, d, 4, crt.MemcpyDeviceToHost); err != nil {
		t.Fatal(err)
	}
	v, err := crt.HostF32(rt, host, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 42 {
		t.Fatalf("cross-stream dependency violated: got %v, want 42", v[0])
	}
}

func TestStreamWaitEventAcrossBindings(t *testing.T) {
	t.Run("native", func(t *testing.T) {
		rt, err := NewNative()
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		waitEventRig(t, rt)
	})
	t.Run("crac", func(t *testing.T) {
		s, err := New()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		waitEventRig(t, s.Runtime())
	})
	t.Run("proxy", func(t *testing.T) {
		rt, err := proxy.New(proxy.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		waitEventRig(t, rt)
	})
	t.Run("traced", func(t *testing.T) {
		rt, err := NewNative()
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		waitEventRig(t, trace.New(rt))
	})
}

func TestStreamWaitEventSurvivesRestart(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Build the dependency after a checkpoint/restart cycle: the
	// recreated streams and events must still support WaitEvent.
	rt := s.Runtime()
	if _, err := rt.Malloc(4096); err != nil {
		t.Fatal(err)
	}
	img := checkpointToBuffer(t, s)
	if err := s.Restart(context.Background(), img); err != nil {
		t.Fatal(err)
	}
	waitEventRig(t, rt)
}

func TestMemGetInfo(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	free0, total, err := rt.MemGetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if total != gpusim.TeslaV100().GlobalMemBytes || free0 != total {
		t.Fatalf("fresh device: free=%d total=%d", free0, total)
	}
	const sz = 8 << 20
	d, err := rt.Malloc(sz)
	if err != nil {
		t.Fatal(err)
	}
	free1, _, err := rt.MemGetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if free0-free1 < sz {
		t.Fatalf("free dropped by %d, want >= %d", free0-free1, uint64(sz))
	}
	if err := rt.Free(d); err != nil {
		t.Fatal(err)
	}
	free2, _, err := rt.MemGetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if free2 != free0 {
		t.Fatalf("free not restored after cudaFree: %d vs %d", free2, free0)
	}
	// And after a restart, the replayed allocation state matches.
	if _, err := rt.Malloc(sz); err != nil {
		t.Fatal(err)
	}
	before, _, _ := rt.MemGetInfo()
	img := checkpointToBuffer(t, s)
	if err := s.Restart(context.Background(), img); err != nil {
		t.Fatal(err)
	}
	after, _, err := rt.MemGetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("MemGetInfo changed across restart: %d vs %d", before, after)
	}
}
