package main

import (
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	crac "repro"
	"repro/internal/kernels"
)

// writeImage builds a session with a known CUDA footprint and
// checkpoints it.
func writeImage(t *testing.T, path string) {
	t.Helper()
	s, err := crac.New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	fat, err := rt.RegisterFatBinary(kernels.Module)
	if err != nil {
		t.Fatal(err)
	}
	for name, k := range kernels.Table() {
		if err := rt.RegisterFunction(fat, name, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.MallocManaged(1 << 16); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StreamCreate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointTo(context.Background(), crac.NewFileStore(path), "img"); err != nil {
		t.Fatal(err)
	}
}

func runInspect(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestInspectBothVersions inspects a v1 and a v2 image and checks the
// dump reports the format and the active CUDA state.
func TestInspectBothVersions(t *testing.T) {
	for _, tc := range []struct {
		version int
		want    []string
	}{
		{2, []string{
			"cudaMalloc:        1 buffers (1048576 bytes)",
			"cudaMallocManaged: 1 buffers (65536 bytes)",
			"streams: 1",
		}},
		// The golden v1 image, written before the v1 writer was retired.
		{1, []string{
			"cudaMalloc:        8 buffers (2097152 bytes)",
			"cudaHostAlloc:     16 buffers (4194304 bytes)",
			"cudaMallocManaged: 1 buffers (262144 bytes)",
		}},
	} {
		path := filepath.Join(t.TempDir(), "ckpt.img")
		if tc.version == 2 {
			writeImage(t, path)
		} else {
			writeGolden(t, path, "v1")
		}
		code, out, errOut := runInspect(t, path)
		if code != 0 {
			t.Fatalf("v%d exit = %d, stderr:\n%s", tc.version, code, errOut)
		}
		want := append([]string{
			fmt.Sprintf("format: v%d", tc.version), "upper-half regions:", "crac.log", "crac.devmem",
		}, tc.want...)
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Fatalf("v%d dump missing %q:\n%s", tc.version, w, out)
			}
		}
	}
}

// writeGolden decompresses the module's golden image
// testdata/<name>.img.gz to path.
func writeGolden(t *testing.T, path, name string) {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", name+".img.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestInspectLogDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.img")
	writeImage(t, path)
	code, out, _ := runInspect(t, "-log", path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "log entries:") || !strings.Contains(out, "cudaMalloc") {
		t.Fatalf("-log dump missing entries:\n%s", out)
	}
}

func TestInspectErrors(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.img")
	os.WriteFile(garbage, []byte("this is not an image at all"), 0o644)
	if code, _, errOut := runInspect(t, garbage); code != 1 || !strings.Contains(errOut, "not a valid CRAC image") {
		t.Fatalf("garbage: exit=%d stderr=%q", code, errOut)
	}
	future := filepath.Join(dir, "future.img")
	os.WriteFile(future, []byte("CRACIMG9........"), 0o644)
	if code, _, errOut := runInspect(t, future); code != 1 || !strings.Contains(errOut, "unsupported format version") {
		t.Fatalf("future version: exit=%d stderr=%q", code, errOut)
	}
	if code, _, _ := runInspect(t); code != 2 {
		t.Fatalf("no args: exit=%d, want 2", code)
	}
}

// TestInspectDeltaImage inspects a v3 base and a bare delta: the base
// reports itself as a chain root; the delta reports its lineage, dirty
// ratio, and unmaterialized payload.
func TestInspectDeltaImage(t *testing.T) {
	dir := t.TempDir()
	store, err := crac.NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := crac.New(crac.WithIncremental(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	buf, err := rt.HostAlloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(buf, 0xAB, 1<<20); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.CheckpointTo(ctx, store, "base"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Memset(buf, 0xCD, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointTo(ctx, store, "delta"); err != nil {
		t.Fatal(err)
	}

	code, out, errOut := runInspect(t, filepath.Join(dir, "base.img"))
	if code != 0 {
		t.Fatalf("base exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "format: v3") || !strings.Contains(out, "base image (chain root)") {
		t.Fatalf("base dump missing v3/base lines:\n%s", out)
	}
	code, out, errOut = runInspect(t, filepath.Join(dir, "delta.img"))
	if code != 0 {
		t.Fatalf("delta exit = %d, stderr:\n%s", code, errOut)
	}
	for _, want := range []string{
		`delta: depth 1, parent "base"`,
		"payload not materialized",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("delta dump missing %q:\n%s", want, out)
		}
	}
}

// TestInspectHTTPStore inspects a delta chain living behind a netstore
// server: the URL form opens the image across the wire, the lineage
// walk resolves every ancestor, and -verify checks the whole chain.
func TestInspectHTTPStore(t *testing.T) {
	store := crac.NewMemStore()
	s, err := crac.New(crac.WithIncremental(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rt := s.Runtime()
	buf, err := rt.HostAlloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, name := range []string{"gen0", "gen1", "gen2"} {
		if err := rt.Memset(buf, byte(0xA0+i), 8192); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CheckpointTo(ctx, store, name); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(crac.ServeStore(store))
	defer srv.Close()

	code, out, errOut := runInspect(t, "-verify", srv.URL+"/gen2")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	for _, want := range []string{
		`delta: depth 2, parent "gen1"`,
		"lineage:",
		"gen1", "base (chain root)",
		"chain of 3 verified across the wire: gen2 <- gen1 <- gen0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("remote dump missing %q:\n%s", want, out)
		}
	}

	if code, _, errOut := runInspect(t, srv.URL+"/absent"); code != 1 || errOut == "" {
		t.Fatalf("missing remote image: exit=%d stderr=%q", code, errOut)
	}
	if code, _, _ := runInspect(t, "http://"); code != 1 {
		t.Fatalf("malformed store URL accepted")
	}
}
