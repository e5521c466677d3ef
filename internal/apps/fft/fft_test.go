package fft

import (
	"math"
	"math/cmplx"
	"slices"
	"sync"
	"testing"

	"lrcrace/internal/dsm"
)

func runFFT(t *testing.T, cfg Config, procs int, proto dsm.ProtocolKind) (*FFT, *dsm.System) {
	t.Helper()
	app := New(cfg)
	sys, err := dsm.New(dsm.Config{
		NumProcs:   procs,
		SharedSize: app.SharedBytes(),
		Protocol:   proto,
		Detect:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(sys); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(app.Worker); err != nil {
		t.Fatal(err)
	}
	return app, sys
}

func TestFFTVecTransform(t *testing.T) {
	// fftVec against the DFT definition on a small vector.
	n := 8
	buf := make([]complex128, n)
	orig := make([]complex128, n)
	for i := range buf {
		buf[i] = complex(float64(i*i%7), float64(3*i%5))
		orig[i] = buf[i]
	}
	fftVec(buf, false)
	for k := 0; k < n; k++ {
		var want complex128
		for j := 0; j < n; j++ {
			want += orig[j] * cmplx.Exp(complex(0, -2*3.141592653589793*float64(k*j)/float64(n)))
		}
		if cmplx.Abs(buf[k]-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", k, buf[k], want)
		}
	}
	// Inverse returns the original.
	fftVec(buf, true)
	for i := range buf {
		if cmplx.Abs(buf[i]-orig[i]) > 1e-9 {
			t.Fatalf("inverse[%d] = %v, want %v", i, buf[i], orig[i])
		}
	}
}

func TestFFT3DMatchesReference(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		app, sys := runFFT(t, Config{N1: 8, N2: 8, N3: 4}, procs, dsm.SingleWriter)
		if err := app.Verify(sys); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
		if races := sys.Races(); len(races) != 0 {
			t.Errorf("procs=%d: FFT reported races: %v", procs, races[0])
		}
	}
}

// TestReferenceComputedOncePerShape: Verify's reference is computed once
// per grid shape and shared, also by instances asking at the same time,
// and it is the transform Reference computes.
func TestReferenceComputedOncePerShape(t *testing.T) {
	cfg := Config{N1: 4, N2: 8, N3: 2}
	got := make([][]complex128, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = New(cfg).reference()
		}()
	}
	wg.Wait()
	for i, r := range got {
		if &r[0] != &got[0][0] {
			t.Fatalf("instance %d computed its own reference", i)
		}
	}
	if !slices.Equal(got[0], New(cfg).Reference()) {
		t.Fatal("shared reference differs from Reference")
	}
	if other := New(Config{N1: 8, N2: 8, N3: 2}).reference(); len(other) == len(got[0]) {
		t.Fatal("two grid shapes share a reference")
	}
}

// TestInputComputedOncePerShape: the input grid Worker and Reference read
// is computed once per grid shape and shared, also by instances asking at
// the same time, and holds the signal at every element. Run it under
// -race.
func TestInputComputedOncePerShape(t *testing.T) {
	cfg := Config{N1: 4, N2: 8, N3: 2}
	got := make([][]complex128, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = New(cfg).input()
		}()
	}
	wg.Wait()
	for i, in := range got {
		if &in[0] != &got[0][0] {
			t.Fatalf("instance %d computed its own input", i)
		}
	}
	n := 4 * 8 * 2
	if len(got[0]) != n {
		t.Fatalf("input has %d elements, want %d", len(got[0]), n)
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 8; y++ {
			for z := 0; z < 2; z++ {
				tt := float64((x*8+y)*2+z) / float64(n)
				want := complex(math.Sin(2*math.Pi*3*tt)+0.5*math.Cos(2*math.Pi*7*tt), 0.25*math.Sin(2*math.Pi*11*tt))
				if v := got[0][(x*8+y)*2+z]; v != want {
					t.Fatalf("input(%d,%d,%d) = %v, want %v", x, y, z, v, want)
				}
			}
		}
	}
	if other := New(Config{N1: 8, N2: 8, N3: 2}).input(); len(other) == len(got[0]) {
		t.Fatal("two grid shapes share an input")
	}
	before := slices.Clone(got[0])
	New(cfg).Reference() // Reference transforms a copy
	if !slices.Equal(got[0], before) {
		t.Fatal("Reference changed the shared input")
	}
}

func TestFFTMultiWriter(t *testing.T) {
	app, sys := runFFT(t, Config{N1: 8, N2: 8, N3: 4}, 3, dsm.MultiWriter)
	if err := app.Verify(sys); err != nil {
		t.Error(err)
	}
	if len(sys.Races()) != 0 {
		t.Errorf("races: %v", sys.Races())
	}
}

func TestFFTConfig(t *testing.T) {
	app := New(Config{})
	if app.cfg.N1 != 64 || app.cfg.N2 != 64 || app.cfg.N3 != 16 {
		t.Errorf("defaults: %+v", app.cfg)
	}
	if app.InputDesc() != "64 x 64 x 16" {
		t.Errorf("InputDesc = %q (paper Table 1 says \"64 x 64 x 16\")", app.InputDesc())
	}
	if p := New(PaperConfig()); p.points() != 65536 {
		t.Errorf("paper points = %d", p.points())
	}
	if app.Name() != "FFT" || app.SyncKinds() != "barrier" {
		t.Error("descriptors wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two dimension accepted")
		}
	}()
	New(Config{N1: 48})
}
