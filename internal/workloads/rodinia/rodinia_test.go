package rodinia

import (
	"math"
	"testing"

	"repro/internal/crt"
	"repro/internal/cuda"
)

func TestRegistry(t *testing.T) {
	apps := Apps()
	if len(apps) != 14 {
		t.Fatalf("Figure 2 suite has %d apps, want 14", len(apps))
	}
	if len(AllApps()) != 15 {
		t.Fatalf("AllApps (with Myocyte) = %d, want 15", len(AllApps()))
	}
	seen := map[string]bool{}
	for _, a := range AllApps() {
		if a.Name == "" || a.PaperArgs == "" || a.Char.Description == "" {
			t.Fatalf("app %+v incomplete", a.Name)
		}
		if a.Run == nil || a.KernelTables == nil {
			t.Fatalf("app %s missing Run/KernelTables", a.Name)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate app %s", a.Name)
		}
		seen[a.Name] = true
	}
	if ByName("Hotspot") == nil || ByName("Myocyte") == nil {
		t.Fatal("ByName lookups failed")
	}
	if ByName("bogus") != nil {
		t.Fatal("ByName returned a bogus app")
	}
}

func TestTablesAggregated(t *testing.T) {
	tables := Tables()
	if len(tables) != 15 {
		t.Fatalf("aggregated modules = %d, want 15 (one per app)", len(tables))
	}
	for mod, funcs := range tables {
		if len(funcs) == 0 {
			t.Fatalf("module %s has no kernels", mod)
		}
	}
}

func TestF32Helpers(t *testing.T) {
	if f32arg(f32bits(1.25)) != 1.25 {
		t.Fatal("f32 round trip")
	}
}

// TestSRAD2MatchesSerial: the srad2 divergence update, which par.For
// splits into row chunks, equals a serial row-major reference loop bit
// for bit, run after run. In that order every cell reads its south and
// east neighbours before they are updated.
func TestSRAD2MatchesSerial(t *testing.T) {
	const w, h = 64, 4 * 64
	const lambda = 0.5
	lib, err := cuda.NewLibrary(cuda.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt := crt.NewNative(lib)
	t.Cleanup(rt.Close)
	fat, err := rt.RegisterFatBinary(sradModule)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterFunction(fat, "srad2", sradTable()["srad2"]); err != nil {
		t.Fatal(err)
	}
	img0 := make([]float32, w*h)
	coef := make([]float32, w*h)
	for i := range img0 {
		img0[i] = 1 + float32((i*7919)%257)/64
		coef[i] = float32((i*104729)%101) / 100
	}
	lam := float32(lambda)
	want := append([]float32(nil), img0...)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			c := want[i]
			cS, cE := coef[i], coef[i]
			down, right := c, c
			if y < h-1 {
				cS, down = coef[i+w], want[i+w]
			}
			if x < w-1 {
				cE, right = coef[i+1], want[i+1]
			}
			div := cS*(down-c) + cE*(right-c)
			want[i] = c + 0.25*lam*div
		}
	}

	dImg, err := rt.Malloc(4 * w * h)
	if err != nil {
		t.Fatal(err)
	}
	dCoef, err := rt.Malloc(4 * w * h)
	if err != nil {
		t.Fatal(err)
	}
	put := func(addr uint64, v []float32) {
		t.Helper()
		b, err := rt.HostAccess(addr, uint64(4*len(v)), true)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range v {
			bits := math.Float32bits(f)
			b[4*i], b[4*i+1], b[4*i+2], b[4*i+3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		}
	}
	cfg := crt.LaunchConfig{Grid: crt.Dim3{X: 1}, Block: crt.Dim3{X: 1}}
	for run := 0; run < 20; run++ {
		put(dImg, img0)
		put(dCoef, coef)
		if err := rt.LaunchKernel(fat, "srad2", cfg, crt.DefaultStream, dImg, dCoef, w, h, f32bits(lambda)); err != nil {
			t.Fatal(err)
		}
		if err := rt.DeviceSynchronize(); err != nil {
			t.Fatal(err)
		}
		b, err := rt.HostAccess(dImg, 4*w*h, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range want {
			got := math.Float32frombits(uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24)
			if got != f {
				t.Fatalf("run %d: cell (%d,%d) = %v, serial reference %v", run, i%w, i/w, got, f)
			}
		}
	}
}
