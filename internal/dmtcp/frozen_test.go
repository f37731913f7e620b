package dmtcp

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/addrspace"
)

// TestFreezeWriteFrozenMatchesBlocking: the snapshot lifecycle with a
// plain (non-SnapshotPlugin) plugin — whose hooks then run in the pause
// window — produces byte-identical images to the blocking Checkpoint
// (a live freeze), for v2 and a standalone v3 base, raw and gzip'd.
func TestFreezeWriteFrozenMatchesBlocking(t *testing.T) {
	for _, tc := range []struct {
		name string
		v3   bool
		gz   bool
	}{
		{"v2", false, false},
		{"v2-gzip", false, true},
		{"v3-base", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() (*Engine, *addrspace.Space) {
				space, _ := buildSpace(t)
				e := NewEngine()
				e.Gzip = tc.gz
				e.Register(&testPlugin{name: "p"})
				return e, space
			}
			eb, sb := mk()
			var blocking bytes.Buffer
			var stB Stats
			var err error
			if tc.v3 {
				stB, _, err = eb.CheckpointDelta(context.Background(), &blocking, sb, nil, "")
			} else {
				stB, err = eb.Checkpoint(context.Background(), &blocking, sb)
			}
			if err != nil {
				t.Fatal(err)
			}
			if stB.PauseDuration != stB.Duration {
				t.Fatalf("blocking pause %v != duration %v", stB.PauseDuration, stB.Duration)
			}

			ef, sf := mk()
			fz, err := ef.FreezeCheckpoint(context.Background(), sf, tc.v3, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			// Mutate after the freeze: the frozen image must not notice.
			regs := sf.RegionsIn(addrspace.HalfUpper)
			if err := sf.WriteAt(regs[0].Start, bytes.Repeat([]byte{0xEE}, int(regs[0].Len))); err != nil {
				t.Fatal(err)
			}
			var frozen bytes.Buffer
			stF, _, err := ef.WriteFrozen(context.Background(), &frozen, fz)
			fz.Release()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blocking.Bytes(), frozen.Bytes()) {
				t.Fatalf("frozen image differs from blocking (%d vs %d bytes)", blocking.Len(), frozen.Len())
			}
			if stF.Regions != stB.Regions || stF.RegionBytes != stB.RegionBytes {
				t.Fatalf("stats diverge: frozen %+v blocking %+v", stF, stB)
			}
			if sf.RetainedPages() != 0 {
				t.Fatal("CoW pages leaked after Release")
			}
		})
	}
}

// TestFreezeDeltaChainMatchesBlocking: a frozen delta against a frozen
// base equals the blocking CheckpointDelta chain byte for byte, and the
// returned DeltaState carries the same lineage.
func TestFreezeDeltaChainMatchesBlocking(t *testing.T) {
	mk := func() (*Engine, *addrspace.Space, uint64) {
		space, up := buildSpace(t)
		e := NewEngine()
		e.Register(&testPlugin{name: "p"})
		return e, space, up
	}
	eb, sb, upB := mk()
	var baseB, deltaB bytes.Buffer
	_, stateB, err := eb.CheckpointDelta(context.Background(), &baseB, sb, nil, "base")
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.WriteAt(upB, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	_, _, err = eb.CheckpointDelta(context.Background(), &deltaB, sb, stateB, "delta")
	if err != nil {
		t.Fatal(err)
	}

	ef, sf, upF := mk()
	var baseF, deltaF bytes.Buffer
	fz, err := ef.FreezeCheckpoint(context.Background(), sf, true, nil, "base")
	if err != nil {
		t.Fatal(err)
	}
	_, stateF, err := ef.WriteFrozen(context.Background(), &baseF, fz)
	fz.Release()
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.WriteAt(upF, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	fz, err = ef.FreezeCheckpoint(context.Background(), sf, true, stateF, "delta")
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := ef.WriteFrozen(context.Background(), &deltaF, fz)
	fz.Release()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Delta {
		t.Fatal("frozen second checkpoint should be a delta")
	}
	if !bytes.Equal(baseB.Bytes(), baseF.Bytes()) {
		t.Fatal("frozen base differs from blocking base")
	}
	if !bytes.Equal(deltaB.Bytes(), deltaF.Bytes()) {
		t.Fatal("frozen delta differs from blocking delta")
	}
	if stateF.Cut != stateB.Cut || stateF.Depth != stateB.Depth || stateF.ID != stateB.ID {
		t.Fatalf("lineage diverges: frozen %+v blocking %+v", stateF, stateB)
	}
}
