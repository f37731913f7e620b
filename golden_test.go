package crac

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// goldenImage returns testdata/<name>.img.gz, decompressed. The golden
// images are checkpoints of goldenSession's state: "v1" and "v1-gzip"
// were written by the retired v1 writer, "v2" is a blocking full
// image, and "v3-base" / "v3-delta" a WithIncremental chain whose
// delta follows one incrWorkload step.
func goldenImage(t testing.TB, name string) []byte {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name+".img.gz"))
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
	return b
}

// goldenSession builds the state every golden image holds: the
// incremental workload on a 64 KiB shard grid.
func goldenSession(t testing.TB, opts ...Option) (*Session, *incrWorkload) {
	t.Helper()
	s, err := New(append([]Option{WithWorkers(0), WithShardSize(64 << 10)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, newIncrWorkload(t, s.Runtime())
}

// TestGoldenImagesByteIdentical pins the written format: a full image
// and a v3 base + delta chain of goldenSession's state are byte for
// byte the golden images, whether the checkpoint is blocking or
// concurrent (DESIGN.md invariant 10), written by one worker or many
// (invariant 6), to an io.Writer or through a Store.
func TestGoldenImagesByteIdentical(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, got []byte, name string) {
		t.Helper()
		if want := goldenImage(t, name); !bytes.Equal(got, want) {
			t.Fatalf("%s: written image differs from testdata/%s.img.gz (%d vs %d bytes)", name, name, len(got), len(want))
		}
	}
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"blocking", nil},
		{"serial", []Option{WithWorkers(1)}},
		{"concurrent", []Option{WithConcurrentCheckpoint()}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s, _ := goldenSession(t, mode.opts...)
			var buf bytes.Buffer
			if _, err := s.Checkpoint(ctx, &buf); err != nil {
				t.Fatal(err)
			}
			check(t, buf.Bytes(), "v2")
			store := NewMemStore()
			if _, err := s.CheckpointTo(ctx, store, "full"); err != nil {
				t.Fatal(err)
			}
			check(t, storeGetBytes(t, store, "full"), "v2")

			s, w := goldenSession(t, append(mode.opts, WithIncremental(8))...)
			if _, err := s.CheckpointTo(ctx, store, "base"); err != nil {
				t.Fatal(err)
			}
			w.step(t, 1)
			if _, err := s.CheckpointTo(ctx, store, "delta"); err != nil {
				t.Fatal(err)
			}
			check(t, storeGetBytes(t, store, "base"), "v3-base")
			check(t, storeGetBytes(t, store, "delta"), "v3-delta")
		})
	}
}
