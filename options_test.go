package crac

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crt"
)

// runFixedWorkload performs an identical, deterministic CUDA workload
// on a session, so two equally-configured sessions produce
// byte-identical checkpoint images. Kernel registration happens in a
// fixed order (unlike setupVecAdd's map iteration, whose random order
// would legitimately reorder the call log between sessions).
func runFixedWorkload(t *testing.T, s *Session) {
	t.Helper()
	rt := s.Runtime()
	const n = 4096
	fat, err := rt.RegisterFatBinary("vectest")
	if err != nil {
		t.Fatalf("RegisterFatBinary: %v", err)
	}
	for _, name := range []string{"scale", "vecAdd"} {
		if err := rt.RegisterFunction(fat, name, vecAddKernels[name]); err != nil {
			t.Fatalf("RegisterFunction(%s): %v", name, err)
		}
	}
	var da, db, dc uint64
	for _, p := range []*uint64{&da, &db, &dc} {
		if *p, err = rt.Malloc(n * 4); err != nil {
			t.Fatalf("Malloc: %v", err)
		}
	}
	// An upper-half heap allocation, so the image carries at least one
	// region in addition to the plugin sections.
	if _, err := rt.AppAlloc(n * 4); err != nil {
		t.Fatalf("AppAlloc: %v", err)
	}
	cfg := crt.LaunchConfig{Grid: crt.Dim3{X: n / 256}, Block: crt.Dim3{X: 256}}
	if err := rt.LaunchKernel(fat, "vecAdd", cfg, crt.DefaultStream, da, db, dc, n); err != nil {
		t.Fatalf("LaunchKernel: %v", err)
	}
	if err := rt.DeviceSynchronize(); err != nil {
		t.Fatalf("DeviceSynchronize: %v", err)
	}
}

// TestCloseIdempotent covers the double-destroy bug: a second Close
// must be a no-op, and operations after Close report ErrSessionClosed.
func TestCloseIdempotent(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // must not double-destroy
	if _, err := s.Checkpoint(context.Background(), &bytes.Buffer{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrSessionClosed", err)
	}
	if err := s.Quiesce(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Quiesce after Close = %v, want ErrSessionClosed", err)
	}
	if s.Library() != nil || s.Space() == nil {
		// Space survives (it is just memory); the lower half does not.
		t.Fatalf("Close left lib=%v", s.Library())
	}
}

// TestCloseAfterFailedRestart covers the second half of the
// double-destroy bug: a restart that fails after tearing down the old
// lower half leaves the session closed, and Close must not re-destroy
// the already-destroyed objects.
func TestCloseAfterFailedRestart(t *testing.T) {
	s, err := New(WithASLR(42))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Runtime().Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		t.Fatal(err)
	}
	// With ASLR on, the fresh lower half lands elsewhere and replay
	// detects the mismatch — after the old lower half is already gone.
	err = s.Restart(context.Background(), bytes.NewReader(img.Bytes()))
	if err == nil {
		t.Skip("ASLR layout happened to match; cannot exercise the failure path")
	}
	if !errors.Is(err, ErrReplayMismatch) {
		t.Fatalf("Restart = %v, want ErrReplayMismatch", err)
	}
	// The session is closed now, not pointing at destroyed objects.
	if _, err := s.Checkpoint(context.Background(), &bytes.Buffer{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Checkpoint after failed restart = %v, want ErrSessionClosed", err)
	}
	// A second restart attempt also reports closed rather than
	// double-destroying.
	if err := s.Restart(context.Background(), bytes.NewReader(img.Bytes())); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("second Restart = %v, want ErrSessionClosed", err)
	}
	s.Close() // must be a no-op, not a double-destroy
}

// TestCheckpointFileAtomic: a checkpoint into a FileStore that fails
// (here: the session is closed) leaves no image and no temp file on
// disk.
func TestCheckpointFileAtomic(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.img")
	if _, err := s.CheckpointTo(context.Background(), NewFileStore(path), "ckpt.img"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("CheckpointTo on closed session = %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed checkpoint left %s behind", path)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("failed checkpoint left temp files: %v", entries)
	}
}

// TestCheckpointFileRoundTrip: a checkpoint into a FileStore restarts
// the session end to end.
func TestCheckpointFileRoundTrip(t *testing.T) {
	ctx := context.Background()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runFixedWorkload(t, s)
	store := NewFileStore(filepath.Join(t.TempDir(), "ckpt.img"))
	st, err := s.CheckpointTo(ctx, store, "ckpt.img")
	if err != nil {
		t.Fatalf("CheckpointTo: %v", err)
	}
	if st.Regions == 0 {
		t.Fatalf("CheckpointTo stats=%+v", st)
	}
	if err := s.RestartFrom(ctx, store, "ckpt.img"); err != nil {
		t.Fatalf("RestartFrom: %v", err)
	}
	if s.Generation() != 1 {
		t.Fatalf("Generation = %d, want 1", s.Generation())
	}
}
