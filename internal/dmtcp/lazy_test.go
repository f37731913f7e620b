package dmtcp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/addrspace"
)

// lazySpace builds a space with a few upper-half regions of patterned
// content.
func lazySpace(t *testing.T) *addrspace.Space {
	t.Helper()
	space := addrspace.New()
	upper := space.UpperWindow().Start
	for i, n := range []uint64{3 * addrspace.PageSize, 1 << 20, 5 * addrspace.PageSize} {
		addr := upper + uint64(i)*(4<<20)
		if _, err := space.MMap(addr, n, addrspace.ProtRW, addrspace.MapFixedNoReplace,
			addrspace.HalfUpper, fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(uint64(i+1)*31 + uint64(j)*7)
		}
		if err := space.WriteAt(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	return space
}

// writeTestImage checkpoints space through a fresh engine.
func writeTestImage(t *testing.T, space *addrspace.Space, mut func(e *Engine)) []byte {
	t.Helper()
	e := NewEngine()
	e.Register(&lazyTestPlugin{})
	if mut != nil {
		mut(e)
	}
	var buf bytes.Buffer
	if _, err := e.Checkpoint(nil, &buf, space); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lazyTestPlugin contributes a deterministic payload section.
type lazyTestPlugin struct{}

func (p *lazyTestPlugin) Name() string { return "lazytest" }
func (p *lazyTestPlugin) PreCheckpoint(_ context.Context, sections *SectionMap) error {
	data := make([]byte, 3*DefaultShardSize/2)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	sections.Add("test.payload", data)
	sections.Add("test.small", []byte("hello"))
	return nil
}
func (p *lazyTestPlugin) Resume() error { return nil }
func (p *lazyTestPlugin) Restart(_ context.Context, sections *SectionMap) error {
	return nil
}

// TestShardIndexSectionBytes checks the index returns the same section
// bytes as the eager reader, across formats.
func TestShardIndexSectionBytes(t *testing.T) {
	write := func(mut func(e *Engine)) func(t *testing.T) []byte {
		return func(t *testing.T) []byte { return writeTestImage(t, lazySpace(t), mut) }
	}
	for _, tc := range []struct {
		name  string
		image func(t *testing.T) []byte
	}{
		{"v2", write(nil)},
		{"v2-gzip", write(func(e *Engine) { e.Gzip = true })},
		{"v2-small-shards", write(func(e *Engine) { e.ShardSize = 64 << 10 })},
		{"v1", func(t *testing.T) []byte { return goldenImage(t, "v1") }},
		{"v1-gzip", func(t *testing.T) []byte { return goldenImage(t, "v1-gzip") }},
		{"v3-base", func(t *testing.T) []byte {
			e := NewEngine()
			e.Register(&lazyTestPlugin{})
			var buf bytes.Buffer
			if _, _, err := e.CheckpointDelta(nil, &buf, lazySpace(t), nil, ""); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := tc.image(t)
			want, err := ReadImage(bytes.NewReader(img))
			if err != nil {
				t.Fatal(err)
			}
			ix, err := OpenShardIndex(bytes.NewReader(img), int64(len(img)))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range want.Sections.Names() {
				wantB, _ := want.Sections.Get(name)
				gotB, err := ix.SectionBytes(name)
				if err != nil {
					t.Fatalf("SectionBytes(%s): %v", name, err)
				}
				if !bytes.Equal(wantB, gotB) {
					t.Fatalf("section %s differs (%d vs %d bytes)", name, len(wantB), len(gotB))
				}
			}
			if len(ix.Regions) != len(want.Regions) {
				t.Fatalf("regions %d != %d", len(ix.Regions), len(want.Regions))
			}
			for i, rd := range want.Regions {
				h := ix.Regions[i]
				if h.Start != rd.Start || h.Len != rd.Len || h.Prot != rd.Prot || h.Label != rd.Label {
					t.Fatalf("region %d header mismatch", i)
				}
			}
		})
	}
}

// TestShardIndexTruncated checks a shard truncated mid-body surfaces a
// decode error, not a hang or silent zeros.
func TestShardIndexTruncated(t *testing.T) {
	space := lazySpace(t)
	img := writeTestImage(t, space, nil)
	// The index scan reads only headers, so it may succeed on an image
	// whose final shard body is cut short; the decode must then fail.
	cut := img[:len(img)-512]
	ix, err := OpenShardIndex(bytes.NewReader(cut), int64(len(cut)))
	if err != nil {
		// The scan itself noticed the truncation: also acceptable.
		if !errors.Is(err, ErrBadImage) {
			t.Fatalf("scan error not ErrBadImage: %v", err)
		}
		return
	}
	var firstErr error
	for i := 0; i < ix.NumShards(); i++ {
		dst := make([]byte, ix.shards[i].rawLen)
		if err := ix.readShard(i, dst); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("no shard decode failed on a truncated image")
	}
	if !errors.Is(firstErr, ErrBadImage) {
		t.Fatalf("decode error not ErrBadImage: %v", firstErr)
	}
}

// chainImages writes a v3 base and one delta over a mutated space,
// returning both serialized images and the final space content probe.
func chainImages(t *testing.T, shard int) (base, delta []byte, space *addrspace.Space) {
	t.Helper()
	space = lazySpace(t)
	e := NewEngine()
	e.ShardSize = shard
	var baseBuf bytes.Buffer
	_, st, err := e.CheckpointDelta(context.Background(), &baseBuf, space, nil, "base")
	if err != nil {
		t.Fatal(err)
	}
	// Dirty a slice in the middle of region 1 (the 1 MiB one) and the
	// whole of region 2.
	regions := space.RegionsIn(addrspace.HalfUpper)
	mut := make([]byte, 3*addrspace.PageSize)
	for i := range mut {
		mut[i] = byte(0xA0 + i%7)
	}
	if err := space.WriteAt(regions[1].Start+200*1024, mut); err != nil {
		t.Fatal(err)
	}
	all2 := make([]byte, regions[2].Len)
	for i := range all2 {
		all2[i] = byte(0xC3 ^ i)
	}
	if err := space.WriteAt(regions[2].Start, all2); err != nil {
		t.Fatal(err)
	}
	var deltaBuf bytes.Buffer
	if _, _, err := e.CheckpointDelta(context.Background(), &deltaBuf, space, st, "delta"); err != nil {
		t.Fatal(err)
	}
	return baseBuf.Bytes(), deltaBuf.Bytes(), space
}

// lazyRestoreChain maps the tip's regions into a fresh space and
// installs a sealed restorer over the linked chain.
func lazyRestoreChain(t *testing.T, chain []*ShardIndex) (*addrspace.Space, *LazyRestorer) {
	t.Helper()
	space := addrspace.New()
	for _, rd := range chain[0].Regions {
		if _, err := space.MMap(rd.Start, rd.Len, rd.Prot, addrspace.MapFixedNoReplace,
			addrspace.HalfUpper, rd.Label); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewLazyRestorer(space, chain)
	if err != nil {
		t.Fatal(err)
	}
	r.PlanRegions()
	space.BeginLazy(r.MaterializeRange)
	r.Seal()
	return space, r
}

// TestLazyChainBaseOwnedShards checks per-shard chain resolution: a
// delta's clean shards materialize from the base, dirty ones from the
// delta, and the restored bytes equal the live space.
func TestLazyChainBaseOwnedShards(t *testing.T) {
	const shard = 64 << 10
	base, delta, live := chainImages(t, shard)
	baseIx, err := OpenShardIndex(bytes.NewReader(base), int64(len(base)))
	if err != nil {
		t.Fatal(err)
	}
	tip, err := OpenShardIndex(bytes.NewReader(delta), int64(len(delta)))
	if err != nil {
		t.Fatal(err)
	}
	if !tip.Delta || tip.Parent != "base" {
		t.Fatalf("tip lineage: delta=%v parent=%q", tip.Delta, tip.Parent)
	}
	if err := tip.SetParent(baseIx); err != nil {
		t.Fatal(err)
	}
	space, r := lazyRestoreChain(t, []*ShardIndex{tip, baseIx})
	for _, rd := range tip.Regions {
		want := make([]byte, rd.Len)
		if err := live.ReadAt(rd.Start, want); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, rd.Len)
		if err := space.ReadAt(rd.Start, got); err != nil {
			t.Fatalf("lazy read %#x: %v", rd.Start, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("region %#x differs after chain materialization", rd.Start)
		}
	}
	if space.ColdBytes() != 0 {
		t.Fatalf("%d bytes cold after full read", space.ColdBytes())
	}
	// Both images must have contributed: the delta carries fewer shards
	// than the read needed.
	if dec := r.ShardsDecoded(); dec <= int64(tip.NumShards()) {
		t.Fatalf("decoded %d shards, expected base shards beyond the delta's %d", dec, tip.NumShards())
	}
}

// TestLazyRestorerSingleFlight hammers one sealed restorer with
// concurrent faulting readers and a racing prefetcher: every shard
// must decode exactly once, and a second full read must decode
// nothing further.
func TestLazyRestorerSingleFlight(t *testing.T) {
	const shard = 64 << 10
	base, delta, live := chainImages(t, shard)
	baseIx, err := OpenShardIndex(bytes.NewReader(base), int64(len(base)))
	if err != nil {
		t.Fatal(err)
	}
	tip, err := OpenShardIndex(bytes.NewReader(delta), int64(len(delta)))
	if err != nil {
		t.Fatal(err)
	}
	if err := tip.SetParent(baseIx); err != nil {
		t.Fatal(err)
	}
	space, r := lazyRestoreChain(t, []*ShardIndex{tip, baseIx})

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := r.Prefetch(context.Background()); err != nil {
			errCh <- err
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 8192)
			for _, rd := range tip.Regions {
				for off := uint64(g * 512); off+8192 <= rd.Len; off += 8192 {
					if err := space.ReadAt(rd.Start+off, buf); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	decoded := r.ShardsDecoded()
	maxShards := int64(tip.NumShards() + baseIx.NumShards())
	if decoded > maxShards {
		t.Fatalf("decoded %d shards with only %d in the chain: single-flight broken", decoded, maxShards)
	}
	// A second full read hits only warm pages: no further decodes.
	for _, rd := range tip.Regions {
		buf := make([]byte, rd.Len)
		if err := space.ReadAt(rd.Start, buf); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, rd.Len)
		if err := live.ReadAt(rd.Start, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, buf) {
			t.Fatalf("region %#x differs under concurrent fault+prefetch", rd.Start)
		}
	}
	if r.ShardsDecoded() != decoded {
		t.Fatalf("re-read decoded %d more shards", r.ShardsDecoded()-decoded)
	}
}
