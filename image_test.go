package crac

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crt"
)

// imageBytes runs a recognizable workload and checkpoints it,
// returning the raw (v2) image bytes.
func imageBytes(t *testing.T) []byte {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	const n = 1024
	fat, da, db, dc, _ := setupVecAdd(t, rt, n)
	cfg := crt.LaunchConfig{Grid: crt.Dim3{X: n / 256}, Block: crt.Dim3{X: 256}}
	if err := rt.LaunchKernel(fat, "vecAdd", cfg, crt.DefaultStream, da, db, dc, n); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StreamCreate(); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// TestOpenImageBothVersions opens a v2 image without restoring and
// checks the Info/Log surface reports the checkpointed state; then it
// checks the golden v1 image reports the same state as the golden v2
// image of the same session.
func TestOpenImageBothVersions(t *testing.T) {
	img, err := OpenImage(bytes.NewReader(imageBytes(t)))
	if err != nil {
		t.Fatalf("OpenImage: %v", err)
	}
	info := img.Info()
	if info.Version != 2 {
		t.Fatalf("Info.Version = %d, want 2", info.Version)
	}
	if info.Gzip {
		t.Fatal("unexpected gzip flag")
	}
	if len(info.Regions) == 0 || info.RegionBytes == 0 {
		t.Fatalf("no regions in info: %+v", info)
	}
	var names []string
	for _, s := range info.Sections {
		names = append(names, s.Name)
	}
	if !strings.Contains(strings.Join(names, ","), "crac.log") {
		t.Fatalf("missing crac.log section in %v", names)
	}
	lg, err := img.Log()
	if err != nil {
		t.Fatalf("Log: %v", err)
	}
	if lg == nil {
		t.Fatal("no log summary")
	}
	if lg.Device.Buffers != 3 {
		t.Fatalf("active device buffers = %d, want 3", lg.Device.Buffers)
	}
	if lg.Device.Bytes != 3*1024*4 {
		t.Fatalf("active device bytes = %d", lg.Device.Bytes)
	}
	if lg.Streams != 1 {
		t.Fatalf("streams = %d, want 1", lg.Streams)
	}
	if len(lg.Modules) != 1 || lg.Modules[0].Module != "vectest" || lg.Modules[0].Kernels != 2 {
		t.Fatalf("modules = %+v", lg.Modules)
	}
	if lg.Entries == 0 {
		t.Fatal("empty log")
	}
	entries, err := img.LogEntries()
	if err != nil || len(entries) != lg.Entries {
		t.Fatalf("LogEntries = %d entries, %v (want %d)", len(entries), err, lg.Entries)
	}

	v1, err := OpenImage(bytes.NewReader(goldenImage(t, "v1")))
	if err != nil {
		t.Fatalf("OpenImage v1: %v", err)
	}
	v2, err := OpenImage(bytes.NewReader(goldenImage(t, "v2")))
	if err != nil {
		t.Fatalf("OpenImage v2: %v", err)
	}
	info1, info2 := v1.Info(), v2.Info()
	if info1.Version != 1 || info2.Version != 2 {
		t.Fatalf("versions = %d, %d", info1.Version, info2.Version)
	}
	if len(info1.Regions) == 0 || !reflect.DeepEqual(info1.Regions, info2.Regions) || !reflect.DeepEqual(info1.Sections, info2.Sections) {
		t.Fatalf("v1 info %+v differs from v2 info %+v", info1, info2)
	}
	lg1, err := v1.Log()
	if err != nil {
		t.Fatalf("v1 Log: %v", err)
	}
	lg2, err := v2.Log()
	if err != nil {
		t.Fatalf("v2 Log: %v", err)
	}
	if lg1.Device.Buffers != incrDevAllocs || !reflect.DeepEqual(lg1, lg2) {
		t.Fatalf("v1 log %+v differs from v2 log %+v", lg1, lg2)
	}
}

func TestOpenImageGarbage(t *testing.T) {
	_, err := OpenImage(bytes.NewReader([]byte("definitely not an image")))
	if !errors.Is(err, ErrBadImage) {
		t.Fatalf("OpenImage(garbage) = %v, want ErrBadImage", err)
	}
	if errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("garbage misclassified as unsupported version: %v", err)
	}
}

func TestOpenImageUnsupportedVersion(t *testing.T) {
	// A CRACIMG magic with a future version digit: recognizably ours,
	// but not a format this build speaks.
	_, err := OpenImage(bytes.NewReader([]byte("CRACIMG9........")))
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("OpenImage(v9) = %v, want ErrUnsupportedVersion", err)
	}
	if errors.Is(err, ErrBadImage) {
		t.Fatalf("unsupported version misclassified as bad image: %v", err)
	}
}

// TestRestoreFromStoreRoundTrip drives the full store-based
// cross-process flow: checkpoint into a DirStore, open the image for
// inspection, then RestoreFrom with a KernelRegistry.
func TestRestoreFromStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	store, err := NewDirStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	rt := s.Runtime()
	const n = 256
	fat, da, db, dc, _ := setupVecAdd(t, rt, n)
	cfg := crt.LaunchConfig{Grid: crt.Dim3{X: 1}, Block: crt.Dim3{X: 256}}
	if err := rt.LaunchKernel(fat, "vecAdd", cfg, crt.DefaultStream, da, db, dc, n); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointTo(ctx, store, "gen0"); err != nil {
		t.Fatalf("CheckpointTo: %v", err)
	}
	s.Close()

	// Inspect without restoring.
	img, err := OpenImageFrom(ctx, store, "gen0")
	if err != nil {
		t.Fatalf("OpenImageFrom: %v", err)
	}
	if lg, err := img.Log(); err != nil || lg == nil || lg.Device.Buffers != 3 {
		t.Fatalf("image log = %+v, %v", lg, err)
	}

	// A brand-new process restores from the store, resolving kernels
	// from its own registry.
	s2, err := RestoreFrom(ctx, store, "gen0",
		WithKernels(NewKernelRegistry().AddTable("vectest", vecAddKernels)))
	if err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	defer s2.Close()
	rt2 := s2.Runtime()
	host, err := rt2.AppAlloc(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.Memcpy(host, dc, n*4, crt.MemcpyDeviceToHost); err != nil {
		t.Fatalf("Memcpy in restored process: %v", err)
	}
	hv, err := crt.HostF32(rt2, host, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if hv[i] != float32(2*i) {
			t.Fatalf("restored c[%d] = %v, want %v", i, hv[i], float32(2*i))
		}
	}

	// RestoreFrom with a missing name classifies as ErrImageNotFound.
	if _, err := RestoreFrom(ctx, store, "genX"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("RestoreFrom missing = %v, want ErrImageNotFound", err)
	}
}

func TestKernelRegistry(t *testing.T) {
	reg := NewKernelRegistry().
		AddTable("mod1", vecAddKernels).
		Add("mod2", "k", vecAddKernels["scale"])
	mods := reg.Modules()
	if len(mods) != 2 {
		t.Fatalf("Modules = %v", mods)
	}
	// WithKernels snapshots: mutating the registry afterwards must not
	// affect an already-built session's resolution set.
	st := resolve([]Option{WithKernels(reg)})
	reg.Add("mod3", "late", vecAddKernels["scale"])
	if len(st.kernels.modules) != 2 {
		t.Fatalf("WithKernels did not snapshot the registry")
	}
}
