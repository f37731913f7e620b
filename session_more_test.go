package crac

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/crt"
	"repro/internal/dmtcp"
)

func TestMultipleCheckpointRestartGenerations(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	const n = 512
	fat, da, db, dc, host := setupVecAdd(t, rt, n)
	cfg := crt.LaunchConfig{Grid: crt.Dim3{X: 2}, Block: crt.Dim3{X: 256}}

	// Three checkpoint/restart cycles, each advancing the computation.
	for gen := 1; gen <= 3; gen++ {
		if err := rt.LaunchKernel(fat, "vecAdd", cfg, crt.DefaultStream, da, db, dc, n); err != nil {
			t.Fatalf("gen %d launch: %v", gen, err)
		}
		var img bytes.Buffer
		if _, err := s.Checkpoint(context.Background(), &img); err != nil {
			t.Fatalf("gen %d checkpoint: %v", gen, err)
		}
		if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); err != nil {
			t.Fatalf("gen %d restart: %v", gen, err)
		}
		if s.Generation() != gen {
			t.Fatalf("generation = %d, want %d", s.Generation(), gen)
		}
	}
	// Still correct after three incarnations: dc = da + db = 2i.
	if err := rt.Memcpy(host, dc, n*4, crt.MemcpyDeviceToHost); err != nil {
		t.Fatal(err)
	}
	hv, err := crt.HostF32(rt, host, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if hv[i] != float32(2*i) {
			t.Fatalf("after 3 generations c[%d] = %v, want %v", i, hv[i], float32(2*i))
		}
	}
}

func TestRestartFromCorruptedImageFails(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Runtime().Malloc(4096); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		t.Fatal(err)
	}
	// Truncation anywhere in the image must be detected, never silently
	// restored.
	b := img.Bytes()
	for _, cut := range []int{4, len(b) / 2, len(b) - 1} {
		if err := s.Restart(context.Background(), bytes.NewReader(b[:cut])); err == nil {
			t.Fatalf("restart from %d-byte prefix succeeded", cut)
		}
	}
	// Bit-flip in the magic.
	bad := append([]byte(nil), b...)
	bad[0] ^= 0xFF
	if err := s.Restart(context.Background(), bytes.NewReader(bad)); err == nil {
		t.Fatal("restart from bad magic succeeded")
	}
	// The session is still usable after rejected restarts (the old lower
	// half was only torn down for images that parse).
	if _, err := s.Runtime().Malloc(4096); err != nil {
		t.Fatalf("session unusable after rejected restart: %v", err)
	}
}

func TestCheckpointFileAndRestartFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.img")
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	d, err := rt.Malloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(d, 0x3C, 64<<10); err != nil {
		t.Fatal(err)
	}
	// Host-side application state, so the image has upper-half regions.
	if _, err := rt.AppAlloc(4096); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	store := NewFileStore(path)
	stats, err := s.CheckpointTo(ctx, store, "ckpt.img")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Regions == 0 {
		t.Fatalf("stats=%+v", stats)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("image file %s: %v", path, err)
	}
	if err := s.RestartFrom(ctx, store, "ckpt.img"); err != nil {
		t.Fatal(err)
	}
	// Contents restored.
	host, _ := rt.AppAlloc(64 << 10)
	if err := rt.Memcpy(host, d, 64<<10, crt.MemcpyDeviceToHost); err != nil {
		t.Fatal(err)
	}
	b, err := rt.HostAccess(host, 64<<10, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range b {
		if v != 0x3C {
			t.Fatalf("restored byte %#x", v)
		}
	}
}

func TestSessionAsCoordinatorMember(t *testing.T) {
	coord := dmtcp.NewCoordinator()
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := New()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Runtime().Malloc(4096); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Runtime().AppAlloc(4096); err != nil {
			t.Fatal(err)
		}
		coord.Add(i, s)
		sessions = append(sessions, s)
	}
	var bufs [3]bytes.Buffer
	err := coord.CheckpointAll(func(rank int) (io.WriteCloser, error) {
		return nopWC{&bufs[rank]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		img, err := dmtcp.ReadImage(bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			t.Fatalf("rank %d image: %v", i, err)
		}
		if len(img.Regions) == 0 {
			t.Fatalf("rank %d image empty", i)
		}
	}
	_ = sessions
}

type nopWC struct{ io.Writer }

func (nopWC) Close() error { return nil }

func TestLowerHalfExcludedFromImage(t *testing.T) {
	// DESIGN.md invariant 4: no lower-half bytes in the image. The lower
	// half includes the device arena; fill it with a marker and verify
	// the marker only appears in the devmem payload section (the drained
	// active mallocs), never as a region.
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	d, _ := rt.Malloc(4096)
	if err := rt.Memset(d, 0xEE, 4096); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		t.Fatal(err)
	}
	parsed, err := dmtcp.ReadImage(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lw := s.Space().LowerWindow()
	uw := s.Space().UpperWindow()
	for _, r := range parsed.Regions {
		if r.Start >= lw.Start && r.Start < lw.End {
			t.Fatalf("lower-half region %+v leaked into the image", r)
		}
		if r.Start < uw.Start || r.Start >= uw.End {
			t.Fatalf("region %+v outside the upper window", r)
		}
	}
	_ = addrspace.HalfUpper
}

func TestSwitcherKinds(t *testing.T) {
	for _, k := range []SwitcherKind{SwitchSyscall, SwitchFSGSBase, SwitchNone} {
		sw := k.newSwitcher()
		sw.Enter()
		sw.Exit()
	}
}

// checkpointToBuffer is a small test helper: checkpoint s into a reader.
func checkpointToBuffer(t *testing.T, s *Session) *bytes.Reader {
	t.Helper()
	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(img.Bytes())
}
