package dmtcp

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/addrspace"
)

// fillPattern writes deterministic, position-dependent bytes so shard
// reordering or misplacement shows up as a content mismatch.
func fillPattern(b []byte, seed uint64) {
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x >> 32)
	}
}

// buildBigSpace maps several upper-half regions of varying sizes (some
// much larger than the shard size used in the tests) plus lower-half
// noise that must never enter an image.
func buildBigSpace(t testing.TB, nRegions int) (*addrspace.Space, []addrspace.RegionInfo) {
	t.Helper()
	s := addrspace.New()
	if _, err := s.MMap(0, 4*addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfLower, "lower-noise"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRegions; i++ {
		pages := uint64(1 + (i*7)%13)
		length := pages * addrspace.PageSize
		start, err := s.MMap(0, length, addrspace.ProtRW, 0, addrspace.HalfUpper, fmt.Sprintf("r%d", i))
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, length)
		fillPattern(data, uint64(i))
		if err := s.WriteAt(start, data); err != nil {
			t.Fatal(err)
		}
	}
	return s, s.RegionsIn(addrspace.HalfUpper)
}

// snapshotRegions reads every region's bytes out of a space.
func snapshotRegions(t testing.TB, s *addrspace.Space, regions []addrspace.RegionInfo) [][]byte {
	t.Helper()
	out := make([][]byte, len(regions))
	for i, ri := range regions {
		out[i] = make([]byte, ri.Len)
		if err := s.ReadAt(ri.Start, out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sectionPlugin contributes sections sized to cross shard boundaries.
type sectionPlugin struct{ sizes []int }

func (p *sectionPlugin) Name() string { return "sections" }
func (p *sectionPlugin) PreCheckpoint(_ context.Context, s *SectionMap) error {
	for i, n := range p.sizes {
		b := s.AddZero(fmt.Sprintf("sec.%d", i), n)
		fillPattern(b, uint64(100+i))
	}
	return nil
}
func (p *sectionPlugin) Resume() error                              { return nil }
func (p *sectionPlugin) Restart(context.Context, *SectionMap) error { return nil }

// TestParallelSerialImagesIdentical: the v2 image is byte-identical for
// any worker count (shard plan depends only on shard size), and the
// restored memory is byte-identical to the original for both paths.
func TestParallelSerialImagesIdentical(t *testing.T) {
	for _, gz := range []bool{false, true} {
		t.Run(fmt.Sprintf("gzip=%v", gz), func(t *testing.T) {
			space, regions := buildBigSpace(t, 9)
			want := snapshotRegions(t, space, regions)

			checkpoint := func(workers int) []byte {
				e := NewEngine()
				e.Gzip = gz
				e.Workers = workers
				e.ShardSize = 3 * addrspace.PageSize // force multi-shard regions
				e.Register(&sectionPlugin{sizes: []int{0, 17, 5 * addrspace.PageSize}})
				var img bytes.Buffer
				if _, err := e.Checkpoint(context.Background(), &img, space); err != nil {
					t.Fatal(err)
				}
				return img.Bytes()
			}
			serial := checkpoint(1)
			parallel := checkpoint(8)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("serial and parallel images differ: %d vs %d bytes", len(serial), len(parallel))
			}

			for _, workers := range []int{1, 8} {
				img, err := ReadImage(bytes.NewReader(parallel))
				if err != nil {
					t.Fatal(err)
				}
				if img.Version != 2 {
					t.Fatalf("version = %d", img.Version)
				}
				fresh := addrspace.New()
				if err := RestoreRegionsN(context.Background(), img, fresh, workers); err != nil {
					t.Fatal(err)
				}
				got := snapshotRegions(t, fresh, regions)
				for i := range want {
					if !bytes.Equal(want[i], got[i]) {
						t.Fatalf("workers=%d: region %d differs after restore", workers, i)
					}
				}
				for i, n := range []int{0, 17, 5 * addrspace.PageSize} {
					sec, ok := img.Sections.Get(fmt.Sprintf("sec.%d", i))
					if !ok || len(sec) != n {
						t.Fatalf("section %d: ok=%v len=%d want %d", i, ok, len(sec), n)
					}
					ref := make([]byte, n)
					fillPattern(ref, uint64(100+i))
					if !bytes.Equal(sec, ref) {
						t.Fatalf("section %d content differs", i)
					}
				}
			}
		})
	}
}

// goldenImage returns one of the repository's golden images
// (testdata/<name>.img.gz at the module root): checkpoints of one
// deterministic session, written by the v1 writer before it was removed
// and by the v2/v3 writers whose bytes they pin.
func goldenImage(t testing.TB, name string) []byte {
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
	return b
}

// goldenNames lists every golden image.
var goldenNames = []string{"v1", "v1-gzip", "v2", "v3-base", "v3-delta"}

// TestV1BackwardCompat: images written in the legacy serial format are
// still read correctly, with and without whole-body gzip: they parse to
// the same regions and sections as a v2 image of the same state.
func TestV1BackwardCompat(t *testing.T) {
	want, err := ReadImage(bytes.NewReader(goldenImage(t, "v2")))
	if err != nil {
		t.Fatal(err)
	}
	for _, gz := range []bool{false, true} {
		t.Run(fmt.Sprintf("gzip=%v", gz), func(t *testing.T) {
			name := "v1"
			if gz {
				name = "v1-gzip"
			}
			parsed, err := ReadImage(bytes.NewReader(goldenImage(t, name)))
			if err != nil {
				t.Fatal(err)
			}
			if parsed.Version != 1 || parsed.Gzip != gz {
				t.Fatalf("version=%d gzip=%v", parsed.Version, parsed.Gzip)
			}
			// Only the whole-body-gzip layout was written without the
			// integrity trailer.
			if parsed.Verified == gz {
				t.Fatalf("Verified = %v for gzip=%v", parsed.Verified, gz)
			}
			if len(parsed.Regions) == 0 || len(parsed.Regions) != len(want.Regions) {
				t.Fatalf("regions: %d, want %d", len(parsed.Regions), len(want.Regions))
			}
			for i, rd := range parsed.Regions {
				w := want.Regions[i]
				if rd.Start != w.Start || rd.Len != w.Len || rd.Prot != w.Prot || rd.Label != w.Label || !bytes.Equal(rd.Data, w.Data) {
					t.Fatalf("region %d differs from the v2 image", i)
				}
			}
			names := parsed.Sections.Names()
			if fmt.Sprint(names) != fmt.Sprint(want.Sections.Names()) {
				t.Fatalf("sections %v, want %v", names, want.Sections.Names())
			}
			for _, n := range names {
				got, _ := parsed.Sections.Get(n)
				ref, _ := want.Sections.Get(n)
				if !bytes.Equal(got, ref) {
					t.Fatalf("section %s differs from the v2 image", n)
				}
			}
		})
	}
}

// TestV1V2SameRestoredState: both formats restore the same memory.
func TestV1V2SameRestoredState(t *testing.T) {
	restored := func(name string) (*addrspace.Space, []addrspace.RegionInfo) {
		parsed, err := ReadImage(bytes.NewReader(goldenImage(t, name)))
		if err != nil {
			t.Fatal(err)
		}
		fresh := addrspace.New()
		if err := RestoreRegions(parsed, fresh); err != nil {
			t.Fatal(err)
		}
		return fresh, fresh.RegionsIn(addrspace.HalfUpper)
	}
	s2, regions := restored("v2")
	v2 := snapshotRegions(t, s2, regions)
	for _, name := range []string{"v1", "v1-gzip"} {
		s1, r1 := restored(name)
		if len(r1) != len(regions) {
			t.Fatalf("%s: %d regions, v2 %d", name, len(r1), len(regions))
		}
		v1 := snapshotRegions(t, s1, regions)
		for i := range v1 {
			if !bytes.Equal(v1[i], v2[i]) {
				t.Fatalf("%s: region %d: v1 and v2 restores differ", name, i)
			}
		}
	}
}

// TestConcurrentCheckpoint exercises the pipeline under the race
// detector: several checkpoints of one space run concurrently with
// lower-half mutation (writes and mmap/munmap churn). Lower-half regions
// are not checkpointed, so all concurrent accesses are disjoint.
func TestConcurrentCheckpoint(t *testing.T) {
	space, _ := buildBigSpace(t, 8)
	scratch, err := space.MMap(0, 8*addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfLower, "scratch")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8*addrspace.PageSize)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fillPattern(buf, uint64(i))
			if err := space.WriteAt(scratch, buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a, err := space.MMap(0, addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfLower, "churn")
			if err != nil {
				t.Error(err)
				return
			}
			if err := space.MUnmap(a, addrspace.PageSize); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var images [4][]byte
	var ckpt sync.WaitGroup
	for i := range images {
		ckpt.Add(1)
		go func(i int) {
			defer ckpt.Done()
			e := NewEngine()
			e.ShardSize = 2 * addrspace.PageSize
			var img bytes.Buffer
			if _, err := e.Checkpoint(context.Background(), &img, space); err != nil {
				t.Error(err)
				return
			}
			images[i] = img.Bytes()
		}(i)
	}
	ckpt.Wait()
	close(stop)
	wg.Wait()

	// The upper half never changed, so every concurrent image is
	// identical and restores correctly.
	for i := 1; i < len(images); i++ {
		if !bytes.Equal(images[0], images[i]) {
			t.Fatalf("concurrent image %d differs", i)
		}
	}
	img, err := ReadImage(bytes.NewReader(images[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreRegions(img, addrspace.New()); err != nil {
		t.Fatal(err)
	}
}

// TestStatsDurations: write and hook time are attributed separately.
func TestStatsDurations(t *testing.T) {
	space, _ := buildBigSpace(t, 4)
	e := NewEngine()
	e.Register(&sectionPlugin{sizes: []int{1024}})
	st, err := e.Checkpoint(context.Background(), io.Discard, space)
	if err != nil {
		t.Fatal(err)
	}
	if st.WriteDuration <= 0 {
		t.Fatalf("WriteDuration = %v", st.WriteDuration)
	}
	if st.Duration < st.WriteDuration {
		t.Fatalf("Duration %v < WriteDuration %v", st.Duration, st.WriteDuration)
	}
	if st.Duration < st.WriteDuration+st.HookDuration {
		t.Fatalf("Duration %v < write %v + hooks %v", st.Duration, st.WriteDuration, st.HookDuration)
	}
}

// TestSectionWriterStreams: the streaming section API accumulates writes
// and publishes on Close.
func TestSectionWriterStreams(t *testing.T) {
	s := NewSectionMap()
	w := s.Writer("log", 4)
	if _, ok := s.Get("log"); ok {
		t.Fatal("section visible before Close")
	}
	w.Write([]byte("abc"))
	w.Write([]byte("defgh"))
	w.Close()
	if got, ok := s.Get("log"); !ok || string(got) != "abcdefgh" {
		t.Fatalf("section = %q ok=%v", got, ok)
	}
	b := s.AddZero("zeros", 5)
	copy(b, "xy")
	if got, _ := s.Get("zeros"); string(got[:2]) != "xy" || len(got) != 5 {
		t.Fatalf("AddZero section = %q", got)
	}
}

// FuzzReadImage: the decoder must reject arbitrary mutations without
// panicking or over-allocating. Seeds cover every golden image (v1,
// v1-gzip, v2, v3 base and delta), fresh v2 images in both compression
// modes, a fresh v3 base and delta, and truncations.
func FuzzReadImage(f *testing.F) {
	add := func(img []byte) {
		f.Add(img)
		f.Add(img[:len(img)/2])
	}
	for _, name := range goldenNames {
		add(goldenImage(f, name))
	}
	space, _ := buildBigSpace(f, 3)
	newEngine := func(gz bool) *Engine {
		e := NewEngine()
		e.Gzip = gz
		e.ShardSize = 2 * addrspace.PageSize
		e.Register(&sectionPlugin{sizes: []int{100, 3000}})
		return e
	}
	for _, gz := range []bool{false, true} {
		var img bytes.Buffer
		if _, err := newEngine(gz).Checkpoint(context.Background(), &img, space); err != nil {
			f.Fatal(err)
		}
		add(img.Bytes())
	}
	e := newEngine(false)
	var base, delta bytes.Buffer
	_, st, err := e.CheckpointDelta(context.Background(), &base, space, nil, "base")
	if err != nil {
		f.Fatal(err)
	}
	regions := space.RegionsIn(addrspace.HalfUpper)
	if err := space.WriteAt(regions[0].Start, []byte{0xEE}); err != nil {
		f.Fatal(err)
	}
	if _, _, err := e.CheckpointDelta(context.Background(), &delta, space, st, "delta"); err != nil {
		f.Fatal(err)
	}
	add(base.Bytes())
	add(delta.Bytes())
	f.Add([]byte("CRACIMG2garbage"))
	f.Add([]byte("CRACIMG1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed image must be internally consistent. An
		// unmaterialized v3 delta carries no region data until its chain
		// is applied.
		if !img.Complete() {
			return
		}
		for i, rd := range img.Regions {
			if uint64(len(rd.Data)) != rd.Len {
				t.Fatalf("region %d: len %d != header %d", i, len(rd.Data), rd.Len)
			}
		}
	})
}
