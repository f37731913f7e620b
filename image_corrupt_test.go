package crac

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
)

// makeImageBytes checkpoints a small session with the given options
// and returns the raw image bytes.
func makeImageBytes(t *testing.T, opts ...Option) []byte {
	t.Helper()
	s, err := New(append([]Option{WithWorkers(0), WithShardSize(32 << 10)}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	rt := s.Runtime()
	d, err := rt.Malloc(96 << 10)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if err := rt.Memset(d, 0x5A, 96<<10); err != nil {
		t.Fatalf("Memset: %v", err)
	}
	var buf bytes.Buffer
	if _, err := s.Checkpoint(context.Background(), &buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// makeDeltaBytes builds a base+delta chain in a MemStore and returns
// the delta's raw bytes plus the backing store (for lazy restores).
func makeDeltaBytes(t *testing.T) ([]byte, Store) {
	t.Helper()
	s, d := newChainSession(t)
	store := NewMemStore()
	buildChain(t, s, d, store, "base", "tip")
	rc, err := store.Get(context.Background(), "tip")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	return b, store
}

// wantAny reports whether err matches at least one of the sentinels.
func wantAny(err error, sentinels ...error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// openCorrupt runs the given mutation over a copy of img and feeds the
// result to OpenImage.
func openCorrupt(img []byte, mutate func([]byte) []byte) error {
	b := mutate(append([]byte(nil), img...))
	_, err := OpenImage(bytes.NewReader(b))
	return err
}

func TestImageStructuralCorruption(t *testing.T) {
	type variant struct {
		name string
		img  []byte
	}
	variants := []variant{
		{"v1", goldenImage(t, "v1")},
		{"v1gzip", goldenImage(t, "v1-gzip")},
		{"v2", makeImageBytes(t)},
		{"v3base", goldenImage(t, "v3-base")},
	}

	type mutation struct {
		name      string
		mutate    func([]byte) []byte
		sentinels []error // any of these satisfies the case
	}
	mutations := []mutation{
		{
			name:      "magic",
			mutate:    func(b []byte) []byte { b[0] ^= 0xFF; return b },
			sentinels: []error{ErrBadImage},
		},
		{
			name:      "version",
			mutate:    func(b []byte) []byte { b[7] = '9'; return b },
			sentinels: []error{ErrUnsupportedVersion},
		},
		{
			name: "truncated-header",
			mutate: func(b []byte) []byte {
				return b[:9]
			},
			sentinels: []error{ErrBadImage, ErrCorruptImage},
		},
		{
			name: "truncated-mid",
			mutate: func(b []byte) []byte {
				return b[:len(b)/2]
			},
			// v1+gzip has no trailer: the truncation surfaces as a
			// structural parse error instead.
			sentinels: []error{ErrCorruptImage, ErrBadImage},
		},
		{
			name: "truncated-tail",
			mutate: func(b []byte) []byte {
				return b[:len(b)-1]
			},
			sentinels: []error{ErrCorruptImage, ErrBadImage},
		},
		{
			name: "payload-flip",
			mutate: func(b []byte) []byte {
				b[len(b)/2] ^= 0x10
				return b
			},
			sentinels: []error{ErrCorruptImage, ErrBadImage},
		},
		{
			name: "tail-flip",
			mutate: func(b []byte) []byte {
				b[len(b)-1] ^= 0x10
				return b
			},
			sentinels: []error{ErrCorruptImage, ErrBadImage},
		},
		{
			name: "appended-garbage",
			mutate: func(b []byte) []byte {
				return append(b, 0xDE, 0xAD)
			},
			sentinels: []error{ErrCorruptImage, ErrBadImage},
		},
	}

	for _, v := range variants {
		for _, m := range mutations {
			t.Run(v.name+"/"+m.name, func(t *testing.T) {
				err := openCorrupt(v.img, m.mutate)
				if err == nil {
					t.Fatalf("%s/%s: corruption accepted", v.name, m.name)
				}
				if !wantAny(err, m.sentinels...) {
					t.Fatalf("%s/%s: err = %v, want one of %v", v.name, m.name, err, m.sentinels)
				}
			})
		}
	}
}

// TestImageSingleBitSweep flips one bit at a stride of offsets across
// each format and requires every flip to be rejected by open, restore,
// or Verify — no silent acceptance of corrupt state.
func TestImageSingleBitSweep(t *testing.T) {
	variants := map[string][]byte{
		"v1": goldenImage(t, "v1"),
		"v2": makeImageBytes(t),
		"v3": goldenImage(t, "v3-base"),
	}
	ctx := context.Background()
	for name, img := range variants {
		stride := len(img)/97 + 1
		for off := 0; off < len(img); off += stride {
			b := append([]byte(nil), img...)
			b[off] ^= 1 << (off % 8)
			im, err := OpenImage(bytes.NewReader(b))
			if err != nil {
				continue // rejected at parse: good
			}
			if err := im.Verify(ctx); err != nil {
				continue // rejected by integrity check: good
			}
			if _, err := RestoreImage(ctx, im); err != nil {
				continue // rejected at restore: good
			}
			t.Fatalf("%s: flip at offset %d (bit %d) accepted end to end", name, off, off%8)
		}
	}
}

// TestDeltaCorruptionEagerAndLazy corrupts a delta tip and asserts
// both restore paths reject it with ErrCorruptImage.
func TestDeltaCorruptionEagerAndLazy(t *testing.T) {
	tip, store := makeDeltaBytes(t)
	ctx := context.Background()

	b := append([]byte(nil), tip...)
	b[len(b)/2] ^= 0x08
	if err := store.Put(ctx, "tip", func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreFrom(ctx, store, "tip"); !wantAny(err, ErrCorruptImage, ErrBadImage) {
		t.Fatalf("eager RestoreFrom = %v, want corruption rejected", err)
	}

	s, err := New(WithWorkers(0), WithLazyRestart())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.RestartFrom(ctx, store, "tip")
	if err == nil {
		// Lazy restart may defer payload validation to the drain: wait
		// for it and demand the drain failed.
		if rs, aerr := s.RestartAsync(ctx, store, "tip"); aerr == nil {
			_, err = rs.Wait()
		}
	}
	if !wantAny(err, ErrCorruptImage, ErrBadImage) {
		t.Fatalf("lazy restart = %v, want corruption rejected", err)
	}
}

// TestLegacyTrailerlessImageStillReadable pins the compatibility rule:
// a pre-trailer image (the bytes of a v2 image minus its 24-byte
// trailer) opens fine, reports Verified=false, and restores.
func TestLegacyTrailerlessImageStillReadable(t *testing.T) {
	img := makeImageBytes(t)
	legacy := img[:len(img)-24]
	im, err := OpenImage(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("OpenImage(legacy): %v", err)
	}
	if im.Info().Verified {
		t.Fatal("trailerless image claims Verified")
	}
	if err := im.Verify(context.Background()); err != nil {
		t.Fatalf("Verify(legacy): %v", err)
	}
	s, err := RestoreImage(context.Background(), im)
	if err != nil {
		t.Fatalf("RestoreImage(legacy): %v", err)
	}
	s.Close()
}
