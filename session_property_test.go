package crac

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"

	"repro/internal/crt"
)

// TestQuickImageDeterminism property: two checkpoints taken back to back
// with no intervening CUDA or host activity produce byte-identical
// images, for arbitrary prior allocation histories. (Checkpointing is a
// pure function of process state — there is no hidden nondeterminism in
// the image format or the drain.)
func TestQuickImageDeterminism(t *testing.T) {
	f := func(ops []uint8) bool {
		s, err := New()
		if err != nil {
			return false
		}
		defer s.Close()
		rt := s.Runtime()
		var live []uint64
		for _, op := range ops {
			switch {
			case op%3 == 0 && len(live) > 0:
				i := int(op) % len(live)
				if rt.Free(live[i]) == nil {
					live = append(live[:i], live[i+1:]...)
				}
			case op%3 == 1:
				if a, err := rt.MallocManaged(uint64(op)*64 + 64); err == nil {
					live = append(live, a)
				}
			default:
				if a, err := rt.Malloc(uint64(op)*128 + 128); err == nil {
					if rt.Memset(a, op, 64) != nil {
						return false
					}
					live = append(live, a)
				}
			}
		}
		var img1, img2 bytes.Buffer
		if _, err := s.Checkpoint(context.Background(), &img1); err != nil {
			return false
		}
		if _, err := s.Checkpoint(context.Background(), &img2); err != nil {
			return false
		}
		return bytes.Equal(img1.Bytes(), img2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRestartIdempotent property: restarting twice from the same
// image yields the same live device state both times (restart is a pure
// function of the image).
func TestQuickRestartIdempotent(t *testing.T) {
	f := func(sizes []uint16) bool {
		s, err := New()
		if err != nil {
			return false
		}
		defer s.Close()
		rt := s.Runtime()
		for _, sz := range sizes {
			if len(sizes) > 24 {
				sizes = sizes[:24]
			}
			if a, err := rt.Malloc(uint64(sz) + 1); err == nil {
				if rt.Memset(a, byte(sz), uint64(sz)+1) != nil {
					return false
				}
			}
		}
		var img bytes.Buffer
		if _, err := s.Checkpoint(context.Background(), &img); err != nil {
			return false
		}
		snapshot := func() []cActive {
			var out []cActive
			for _, a := range s.Library().ActiveDeviceMallocs() {
				buf := make([]byte, a.Size)
				if err := s.Space().ReadAt(a.Addr, buf); err != nil {
					return nil
				}
				out = append(out, cActive{a.Addr, a.Size, string(buf)})
			}
			return out
		}
		if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); err != nil {
			return false
		}
		first := snapshot()
		if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); err != nil {
			return false
		}
		second := snapshot()
		if len(first) != len(second) {
			return false
		}
		for i := range first {
			if first[i] != second[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

type cActive struct {
	addr uint64
	size uint64
	data string
}

// TestAsyncOrderingUnderCRAC: stream-ordered operations observe FIFO
// semantics through the trampoline exactly as natively — an async copy
// enqueued after a kernel sees the kernel's output.
func TestAsyncOrderingUnderCRAC(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	fat, da, _, _, _ := setupVecAdd(t, rt, 256)
	stream, err := rt.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	pin, err := rt.MallocHost(256 * 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := crt.LaunchConfig{Grid: crt.Dim3{X: 1}, Block: crt.Dim3{X: 256}}
	// kernel then async D2H on the same stream: the copy must see the
	// scaled values.
	if err := rt.LaunchKernel(fat, "scale", cfg, stream, da, 256, 10); err != nil {
		t.Fatal(err)
	}
	if err := rt.MemcpyAsync(pin, da, 256*4, crt.MemcpyDeviceToHost, stream); err != nil {
		t.Fatal(err)
	}
	if err := rt.StreamSynchronize(stream); err != nil {
		t.Fatal(err)
	}
	hv, err := crt.HostF32(rt, pin, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if hv[i] != float32(10*i) {
			t.Fatalf("async ordering violated: pin[%d] = %v, want %v", i, hv[i], float32(10*i))
		}
	}
}
