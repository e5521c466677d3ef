// Package fft implements the paper's FFT benchmark: a 3-D complex FFT over
// an n1×n2×n3 grid — the paper's input is 64×64×16 — partitioned into slabs
// of x-planes and synchronized only by barriers.
//
// The transform runs as three passes. The z-pass and y-pass are local to a
// process's slab; the x-pass needs every x for fixed (y,z), so it gathers
// pencils across all slabs (remote reads) and writes the transformed
// pencils into the process's own contiguous block of the output grid — the
// Splash2 communication structure: reads cross the machine, writes stay
// partition-local, so barrier-separated passes exhibit almost no
// unsynchronized page sharing. Every pencil is copied into a private buffer
// before the butterflies run, which is where the instrumented-but-private
// accesses of Table 3 come from.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"

	"lrcrace/internal/apps"
	"lrcrace/internal/dsm"
	"lrcrace/internal/mem"
)

func init() {
	apps.Register("FFT", func(scale float64) apps.App { return New(Config{Scale: scale}) })
}

// Config sets the problem size.
type Config struct {
	// N1, N2, N3 are the grid dimensions (powers of two). Zero → the
	// paper's 64×64×16, with N1 scaled by Scale.
	N1, N2, N3 int
	// Scale scales the default N1=64 (rounded up to a power of two).
	Scale float64
}

func (c *Config) fill() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.N1 == 0 {
		n := 4
		for float64(n) < 64*c.Scale {
			n *= 2
		}
		c.N1 = n
	}
	if c.N2 == 0 {
		c.N2 = 64
	}
	if c.N3 == 0 {
		c.N3 = 16
	}
	for _, n := range []int{c.N1, c.N2, c.N3} {
		if n&(n-1) != 0 || n < 2 {
			panic(fmt.Sprintf("fft: dimension %d must be a power of two >= 2", n))
		}
	}
}

// PaperConfig is the paper's input set: a 64×64×16 complex grid.
func PaperConfig() Config { return Config{N1: 64, N2: 64, N3: 16} }

// FFT is the benchmark instance.
type FFT struct {
	cfg  Config
	a, b mem.Addr // complex grids: 2 words (re, im) per element
}

// New builds an FFT instance.
func New(cfg Config) *FFT {
	cfg.fill()
	return &FFT{cfg: cfg}
}

// Name implements apps.App.
func (f *FFT) Name() string { return "FFT" }

// InputDesc implements apps.App.
func (f *FFT) InputDesc() string {
	return fmt.Sprintf("%d x %d x %d", f.cfg.N1, f.cfg.N2, f.cfg.N3)
}

// SyncKinds implements apps.App.
func (f *FFT) SyncKinds() string { return "barrier" }

func (f *FFT) points() int { return f.cfg.N1 * f.cfg.N2 * f.cfg.N3 }

// SharedBytes implements apps.App: two complex grids.
func (f *FFT) SharedBytes() int {
	return 2*2*f.points()*mem.WordSize + mem.DefaultPageSize
}

// elem addresses element (x,y,z) of grid A, laid out x-major so that a
// process's slab of x-planes is contiguous.
func (f *FFT) elem(base mem.Addr, x, y, z int) mem.Addr {
	idx := (x*f.cfg.N2+y)*f.cfg.N3 + z
	return base + mem.Addr(idx*2*mem.WordSize)
}

// inputs holds one input grid per shape, as a func() []complex128 keyed
// by [3]int{N1, N2, N3}.
var inputs sync.Map

// input is the deterministic test signal, in grid A's x-major order:
// element (x,y,z) at (x·N2+y)·N3+z. It depends on the grid shape alone, so
// the runs of one shape — concurrent sweep cells included — compute it once
// (inputs) and share it read-only. Filling the grid charges no Compute, so
// the cache moves no virtual time.
func (f *FFT) input() []complex128 {
	c := f.cfg
	once, _ := inputs.LoadOrStore([3]int{c.N1, c.N2, c.N3}, sync.OnceValue(func() []complex128 {
		n := f.points()
		in := make([]complex128, n)
		for i := range in {
			t := float64(i) / float64(n)
			in[i] = complex(math.Sin(2*math.Pi*3*t)+0.5*math.Cos(2*math.Pi*7*t), 0.25*math.Sin(2*math.Pi*11*t))
		}
		return in
	}))
	return once.(func() []complex128)()
}

// Setup implements apps.App.
func (f *FFT) Setup(sys *dsm.System) error {
	var err error
	if f.a, err = sys.Alloc("gridA", 2*f.points()*mem.WordSize); err != nil {
		return err
	}
	if f.b, err = sys.Alloc("gridB", 2*f.points()*mem.WordSize); err != nil {
		return err
	}
	return nil
}

// slabFor returns the half-open x-plane range of proc id.
func (f *FFT) slabFor(id, nproc int) (lo, hi int) {
	n := f.cfg.N1
	return id * n / nproc, (id + 1) * n / nproc
}

// pencilsFor returns the half-open (y,z)-pencil range of proc id for the
// x-pass; pencil pi = y*N3+z.
func (f *FFT) pencilsFor(id, nproc int) (lo, hi int) {
	n := f.cfg.N2 * f.cfg.N3
	return id * n / nproc, (id + 1) * n / nproc
}

func (f *FFT) readElem(p *dsm.Proc, x, y, z int) complex128 {
	a := f.elem(f.a, x, y, z)
	return complex(p.ReadF64(a), p.ReadF64(a+mem.WordSize))
}

func (f *FFT) writeElem(p *dsm.Proc, x, y, z int, v complex128) {
	a := f.elem(f.a, x, y, z)
	p.WriteF64(a, real(v))
	p.WriteF64(a+mem.WordSize, imag(v))
}

// fftVec transforms buf in place (iterative radix-2, decimation in time).
func fftVec(buf []complex128, inverse bool) {
	n := len(buf)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for k := 0; k < length/2; k++ {
				u := buf[i+k]
				v := buf[i+k+length/2] * w
				buf[i+k] = u + v
				buf[i+k+length/2] = u - v
				w *= wl
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range buf {
			buf[i] *= inv
		}
	}
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// chargePencil models the private butterfly work on one pencil of length n.
func chargePencil(p *dsm.Proc, n int) {
	logn := log2(n)
	p.PrivateAccess(int64(3 * n * logn))
	p.Compute(int64(5 * n * logn))
}

// Worker implements apps.App.
func (f *FFT) Worker(p *dsm.Proc) {
	c := f.cfg
	if p.ID() == 0 {
		in := f.input()
		for x := 0; x < c.N1; x++ {
			for y := 0; y < c.N2; y++ {
				for z := 0; z < c.N3; z++ {
					f.writeElem(p, x, y, z, in[(x*c.N2+y)*c.N3+z])
				}
			}
		}
	}
	p.Barrier()

	lo, hi := f.slabFor(p.ID(), p.N())

	// z-pass: contiguous pencils within the slab.
	zbuf := make([]complex128, c.N3)
	for x := lo; x < hi; x++ {
		for y := 0; y < c.N2; y++ {
			for z := 0; z < c.N3; z++ {
				zbuf[z] = f.readElem(p, x, y, z)
			}
			fftVec(zbuf, false)
			chargePencil(p, c.N3)
			for z := 0; z < c.N3; z++ {
				f.writeElem(p, x, y, z, zbuf[z])
			}
		}
	}
	p.Barrier()

	// y-pass: strided pencils, still within the slab.
	ybuf := make([]complex128, c.N2)
	for x := lo; x < hi; x++ {
		for z := 0; z < c.N3; z++ {
			for y := 0; y < c.N2; y++ {
				ybuf[y] = f.readElem(p, x, y, z)
			}
			fftVec(ybuf, false)
			chargePencil(p, c.N2)
			for y := 0; y < c.N2; y++ {
				f.writeElem(p, x, y, z, ybuf[y])
			}
		}
	}
	p.Barrier()

	// x-pass: gather each owned (y,z) pencil across every slab of A
	// (remote reads), transform, and write it into this process's
	// contiguous pencil block of B (partition-local writes).
	xbuf := make([]complex128, c.N1)
	plo, phi := f.pencilsFor(p.ID(), p.N())
	for pi := plo; pi < phi; pi++ {
		y, z := pi/c.N3, pi%c.N3
		for x := 0; x < c.N1; x++ {
			xbuf[x] = f.readElem(p, x, y, z)
		}
		fftVec(xbuf, false)
		chargePencil(p, c.N1)
		for x := 0; x < c.N1; x++ {
			a := f.b + mem.Addr((pi*c.N1+x)*2*mem.WordSize)
			p.WriteF64(a, real(xbuf[x]))
			p.WriteF64(a+mem.WordSize, imag(xbuf[x]))
		}
	}
	p.Barrier()
}

// Reference computes the same 3-D transform sequentially, in the worker's
// output layout (pencil-major: element x of pencil (y,z) at (y·N3+z)·N1+x).
func (f *FFT) Reference() []complex128 {
	c := f.cfg
	a := slices.Clone(f.input())
	at := func(x, y, z int) int { return (x*c.N2+y)*c.N3 + z }
	zbuf := make([]complex128, c.N3)
	for x := 0; x < c.N1; x++ {
		for y := 0; y < c.N2; y++ {
			for z := 0; z < c.N3; z++ {
				zbuf[z] = a[at(x, y, z)]
			}
			fftVec(zbuf, false)
			for z := 0; z < c.N3; z++ {
				a[at(x, y, z)] = zbuf[z]
			}
		}
	}
	ybuf := make([]complex128, c.N2)
	for x := 0; x < c.N1; x++ {
		for z := 0; z < c.N3; z++ {
			for y := 0; y < c.N2; y++ {
				ybuf[y] = a[at(x, y, z)]
			}
			fftVec(ybuf, false)
			for y := 0; y < c.N2; y++ {
				a[at(x, y, z)] = ybuf[y]
			}
		}
	}
	out := make([]complex128, f.points())
	xbuf := make([]complex128, c.N1)
	for y := 0; y < c.N2; y++ {
		for z := 0; z < c.N3; z++ {
			for x := 0; x < c.N1; x++ {
				xbuf[x] = a[at(x, y, z)]
			}
			fftVec(xbuf, false)
			pi := y*c.N3 + z
			for x := 0; x < c.N1; x++ {
				out[pi*c.N1+x] = xbuf[x]
			}
		}
	}
	return out
}

// references holds one reference transform per grid shape, as a
// func() []complex128 keyed by [3]int{N1, N2, N3}. The reference depends
// on nothing else, and Verify runs after every run, so the runs of one
// shape — concurrent sweep cells included — compute it once and share it
// read-only.
var references sync.Map

// reference returns the shared reference transform of f's grid shape.
func (f *FFT) reference() []complex128 {
	once, _ := references.LoadOrStore([3]int{f.cfg.N1, f.cfg.N2, f.cfg.N3}, sync.OnceValue(f.Reference))
	return once.(func() []complex128)()
}

// Verify implements apps.App.
func (f *FFT) Verify(sys *dsm.System) error {
	want := f.reference()
	for i, w := range want {
		a := f.b + mem.Addr(i*2*mem.WordSize)
		got := complex(sys.SnapshotF64(a), sys.SnapshotF64(a+mem.WordSize))
		if cmplx.Abs(got-w) > 1e-9 {
			return fmt.Errorf("fft: element %d = %v, want %v", i, got, w)
		}
	}
	return nil
}
