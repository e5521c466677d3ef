// Package water implements the paper's Water benchmark in the structure of
// Splash2 Water-Nsquared: an N-body molecular dynamics step loop with O(N²)
// pairwise force evaluation using the cyclic "owner computes half" scheme —
// each process evaluates the interactions of its molecules with the next
// N/2 molecules (mod N), accumulating into both molecules' force slots
// under per-molecule locks — plus barriers between phases and lock-protected
// global energy accumulators. The fine-grained locking is what gives Water
// its high interval count and read-notice bandwidth in the paper's tables.
//
// The paper found a write-write data race in Water-Nsquared that "was a
// real bug ... reported to the Splash authors and fixed in their current
// version". This implementation seeds an equivalent bug (on by default, as
// in the version the paper ran): the global virial accumulator VIR is
// updated without taking the accumulator lock, so concurrent per-process
// read-modify-writes race write-against-write. The bug corrupts only that
// statistic, never the trajectory, so Verify still passes while the
// detector flags the race. Construct with Config{FixBug: true} for the
// repaired program.
package water

import (
	"fmt"
	"math"
	"sync"

	"lrcrace/internal/apps"
	"lrcrace/internal/dsm"
	"lrcrace/internal/mem"
)

func init() {
	apps.Register("Water", func(scale float64) apps.App { return New(Config{Scale: scale}) })
}

// Lock identifiers. Molecule locks start at MolLockBase; molecules are
// locked in groups of LockGroup, guarded by MolLockBase + (m/LockGroup) %
// MolLocks.
const (
	PELock      = 0 // potential-energy (and fixed-virial) accumulator
	KELock      = 1 // kinetic-energy accumulator
	MolLockBase = 2
	MolLocks    = 16
	LockGroup   = 2
)

// MolStride is the number of words in one molecule record. Water-Nsquared
// stores molecules as records (nine atomic sites plus predictor-corrector
// state, ~700 bytes each), not as parallel arrays; the record layout is
// what gives the paper its 152 KB shared segment at 216 molecules, and —
// crucially for the page-level statistics — it means a per-molecule lock
// tenure touches only that molecule's page. We reserve the same footprint:
// the live fields (position, velocity, acceleration, new force) occupy the
// first 12 words and the rest models the remaining molecule state.
const MolStride = 96

// Field offsets (in words) within a molecule record.
const (
	fPos    = 0
	fVel    = 3
	fAcc    = 6
	fAccNew = 9
)

const dt = 1e-3

// Config sets the problem size.
type Config struct {
	// Molecules is the molecule count. Zero → 64·Scale (paper: 216).
	Molecules int
	// Steps is the number of time steps. Zero → 5, as in the paper.
	Steps int
	// FixBug applies the Splash2 fix: the virial update takes the lock.
	FixBug bool
	// Scale scales the default molecule count.
	Scale float64
}

func (c *Config) fill() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Molecules == 0 {
		c.Molecules = int(64 * c.Scale)
		if c.Molecules < 8 {
			c.Molecules = 8
		}
	}
	if c.Steps == 0 {
		c.Steps = 5
	}
}

// Water is the benchmark instance.
type Water struct {
	cfg Config

	mols                mem.Addr // molecule records, MolStride words each
	potEng, kinEng, vir mem.Addr // global accumulators (vir is the bug)
}

// PaperConfig is the paper's input set: 216 molecules, 5 time steps.
func PaperConfig() Config { return Config{Molecules: 216, Steps: 5} }

// New builds a Water instance.
func New(cfg Config) *Water {
	cfg.fill()
	return &Water{cfg: cfg}
}

// Name implements apps.App.
func (w *Water) Name() string { return "Water" }

// InputDesc implements apps.App.
func (w *Water) InputDesc() string {
	return fmt.Sprintf("%d mols, %d steps", w.cfg.Molecules, w.cfg.Steps)
}

// SyncKinds implements apps.App.
func (w *Water) SyncKinds() string { return "lock, barrier" }

// SharedBytes implements apps.App: the molecule-record array plus an
// accumulator page.
func (w *Water) SharedBytes() int {
	arr := MolStride * w.cfg.Molecules * mem.WordSize
	arrPages := (arr + mem.DefaultPageSize - 1) / mem.DefaultPageSize
	return (arrPages + 2) * mem.DefaultPageSize
}

// allocArray page-aligns each shared array, as the original's separate
// G_MEM allocations do; without it every array lands on one page and the
// page-level sharing statistics degenerate.
func allocArray(sys *dsm.System, name string, words int) (mem.Addr, error) {
	ps := sys.Layout().PageSize
	if pad := (ps - sys.AllocBytes()%ps) % ps; pad > 0 {
		if _, err := sys.Alloc(name+"_pad", pad); err != nil {
			return 0, err
		}
	}
	return sys.AllocWords(name, words)
}

// Setup implements apps.App.
func (w *Water) Setup(sys *dsm.System) error {
	n := w.cfg.Molecules
	var err error
	if w.mols, err = allocArray(sys, "mols", MolStride*n); err != nil {
		return err
	}
	// Accumulators on their own page, separate words.
	if w.potEng, err = allocArray(sys, "potEng", 1); err != nil {
		return err
	}
	if w.kinEng, err = sys.AllocWords("kinEng", 1); err != nil {
		return err
	}
	if w.vir, err = sys.AllocWords("vir", 1); err != nil {
		return err
	}
	return nil
}

// fieldAddr returns the address of dimension dim of a molecule-record
// field (fPos, fVel, fAcc, fAccNew).
func (w *Water) fieldAddr(field, mol, dim int) mem.Addr {
	return w.mols + mem.Addr((mol*MolStride+field+dim)*mem.WordSize)
}

// initPos gives molecule i a deterministic starting position and velocity.
func initPos(i int) (pos, vel [3]float64) {
	h := uint64(i+1) * 0x9e3779b97f4a7c15
	for d := 0; d < 3; d++ {
		pos[d] = float64((h>>(8*d))%997) / 100.0
		vel[d] = (float64((h>>(8*d+24))%199) - 99) / 1000.0
	}
	return pos, vel
}

func (w *Water) molsFor(id, nproc int) (lo, hi int) {
	n := w.cfg.Molecules
	return id * n / nproc, (id + 1) * n / nproc
}

// pairForce is the softened inverse-square interaction on i from j, plus
// the pair's potential-energy and virial contributions.
func pairForce(pi, pj [3]float64) (f [3]float64, pot, vir float64) {
	var r2 float64
	var dr [3]float64
	for d := 0; d < 3; d++ {
		dr[d] = pj[d] - pi[d]
		r2 += dr[d] * dr[d]
	}
	const eps = 0.5
	inv := 1 / math.Pow(r2+eps, 1.5)
	for d := 0; d < 3; d++ {
		f[d] = dr[d] * inv
	}
	return f, -1 / math.Sqrt(r2+eps), r2 * inv
}

// pairsOf enumerates the cyclic half-interaction partners of molecule i:
// j = (i+1..i+n/2) mod n, with the antipodal partner claimed by the lower
// index only, so each unordered pair is computed exactly once system-wide.
func pairsOf(i, n int) []int {
	half := n / 2
	var out []int
	for k := 1; k <= half; k++ {
		j := (i + k) % n
		if n%2 == 0 && k == half && i > j {
			continue
		}
		out = append(out, j)
	}
	return out
}

// Worker implements apps.App.
func (w *Water) Worker(p *dsm.Proc) {
	n := w.cfg.Molecules
	lo, hi := w.molsFor(p.ID(), p.N())

	if p.ID() == 0 {
		for i := 0; i < n; i++ {
			pos, vel := initPos(i)
			for d := 0; d < 3; d++ {
				p.WriteF64(w.fieldAddr(fPos, i, d), pos[d])
				p.WriteF64(w.fieldAddr(fVel, i, d), vel[d])
				p.WriteF64(w.fieldAddr(fAcc, i, d), 0)
			}
		}
		p.WriteF64(w.potEng, 0)
		p.WriteF64(w.kinEng, 0)
		p.WriteF64(w.vir, 0)
	}
	p.Barrier()

	for step := 0; step < w.cfg.Steps; step++ {
		// PREDIC: advance owned positions; zero the owned force slots for
		// the coming accumulation.
		for i := lo; i < hi; i++ {
			for d := 0; d < 3; d++ {
				x := p.ReadF64(w.fieldAddr(fPos, i, d))
				v := p.ReadF64(w.fieldAddr(fVel, i, d))
				a := p.ReadF64(w.fieldAddr(fAcc, i, d))
				p.WriteF64(w.fieldAddr(fPos, i, d), x+(v*dt+0.5*a*dt*dt))
				p.WriteF64(w.fieldAddr(fAccNew, i, d), 0)
			}
			p.PrivateAccess(9)
			p.Compute(24)
		}
		p.Barrier()

		// INTERF: cyclic half-interaction — this process evaluates each of
		// its molecules against the next n/2 molecules (mod n), buffering
		// force contributions privately, then folds them into the shared
		// force array under per-molecule locks (the Splash2 pattern that
		// gives Water its fine-grained synchronization).
		fbuf := make([][3]float64, n)
		touched := make([]bool, n)
		potPart, virPart := 0.0, 0.0
		for i := lo; i < hi; i++ {
			var pi [3]float64
			for d := 0; d < 3; d++ {
				pi[d] = p.ReadF64(w.fieldAddr(fPos, i, d))
			}
			for _, j := range pairsOf(i, n) {
				var pj [3]float64
				for d := 0; d < 3; d++ {
					pj[d] = p.ReadF64(w.fieldAddr(fPos, j, d))
				}
				f, pot, vir := pairForce(pi, pj)
				for d := 0; d < 3; d++ {
					fbuf[i][d] += f[d]
					fbuf[j][d] -= f[d]
				}
				touched[i], touched[j] = true, true
				potPart += pot
				virPart += vir
				// The original evaluates 9-site water-molecule interactions:
				// dozens of private array accesses and ~100 flops per pair
				// (Table 3's ~6.8:1 private:shared ratio for Water).
				p.PrivateAccess(45)
				p.Compute(110)
			}
		}
		for g := 0; g*LockGroup < n; g++ {
			anyTouched := false
			for m := g * LockGroup; m < (g+1)*LockGroup && m < n; m++ {
				if touched[m] {
					anyTouched = true
				}
			}
			if !anyTouched {
				continue
			}
			l := MolLockBase + g%MolLocks
			p.Lock(l)
			for m := g * LockGroup; m < (g+1)*LockGroup && m < n; m++ {
				if !touched[m] {
					continue
				}
				for d := 0; d < 3; d++ {
					a := w.fieldAddr(fAccNew, m, d)
					p.WriteF64(a, p.ReadF64(a)+fbuf[m][d])
				}
			}
			p.Unlock(l)
		}
		// Fold the per-process partials into the global accumulators: the
		// potential energy correctly under its lock...
		p.Lock(PELock)
		p.WriteF64(w.potEng, p.ReadF64(w.potEng)+potPart)
		p.Unlock(PELock)
		// ...and the virial with the seeded Splash2 bug: no lock, so the
		// read-modify-write races write-against-write across processes.
		if w.cfg.FixBug {
			p.Lock(PELock)
			p.WriteF64(w.vir, p.ReadF64(w.vir)+virPart)
			p.Unlock(PELock)
		} else {
			p.WriteF64(w.vir, p.ReadF64(w.vir)+virPart)
		}
		p.Barrier()

		// CORREC: velocity update with averaged accelerations; kinetic
		// energy reduced under its lock.
		kinPart := 0.0
		for i := lo; i < hi; i++ {
			for d := 0; d < 3; d++ {
				v := p.ReadF64(w.fieldAddr(fVel, i, d))
				aOld := p.ReadF64(w.fieldAddr(fAcc, i, d))
				aNew := p.ReadF64(w.fieldAddr(fAccNew, i, d))
				nv := v + 0.5*(aOld+aNew)*dt
				p.WriteF64(w.fieldAddr(fVel, i, d), nv)
				p.WriteF64(w.fieldAddr(fAcc, i, d), aNew)
				kinPart += 0.5 * nv * nv
			}
			p.PrivateAccess(12)
			p.Compute(30)
		}
		p.Lock(KELock)
		p.WriteF64(w.kinEng, p.ReadF64(w.kinEng)+kinPart)
		p.Unlock(KELock)
		p.Barrier()
	}
}

// Reference computes the trajectory sequentially with the same pair set;
// force contributions may sum in a different order than the parallel run,
// so comparisons use a tolerance.
func (w *Water) Reference() (pos, vel [][3]float64, kinTotal float64) {
	n := w.cfg.Molecules
	pos = make([][3]float64, n)
	vel = make([][3]float64, n)
	acc := make([][3]float64, n)
	for i := 0; i < n; i++ {
		pos[i], vel[i] = initPos(i)
	}
	for step := 0; step < w.cfg.Steps; step++ {
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				pos[i][d] += vel[i][d]*dt + 0.5*acc[i][d]*dt*dt
			}
		}
		accNew := make([][3]float64, n)
		for i := 0; i < n; i++ {
			for _, j := range pairsOf(i, n) {
				f, _, _ := pairForce(pos[i], pos[j])
				for d := 0; d < 3; d++ {
					accNew[i][d] += f[d]
					accNew[j][d] -= f[d]
				}
			}
		}
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				vel[i][d] += 0.5 * (acc[i][d] + accNew[i][d]) * dt
				acc[i][d] = accNew[i][d]
				kinTotal += 0.5 * vel[i][d] * vel[i][d]
			}
		}
	}
	return pos, vel, kinTotal
}

// trajectory is one Reference result.
type trajectory struct {
	pos, vel [][3]float64
	kin      float64
}

// references holds one reference trajectory per problem shape, as a
// func() trajectory keyed by [2]int{Molecules, Steps}. The reference
// depends on nothing else, and Verify runs after every run, so the runs of
// one shape — concurrent sweep cells included — compute it once and share
// it read-only.
var references sync.Map

// reference returns the shared reference trajectory of w's shape.
func (w *Water) reference() trajectory {
	once, _ := references.LoadOrStore([2]int{w.cfg.Molecules, w.cfg.Steps}, sync.OnceValue(func() trajectory {
		pos, vel, kin := w.Reference()
		return trajectory{pos, vel, kin}
	}))
	return once.(func() trajectory)()
}

// Verify implements apps.App: trajectories must match the sequential
// reference to floating-point reduction tolerance, and the lock-protected
// kinetic energy likewise. The racy virial is deliberately not checked —
// it is the seeded bug.
func (w *Water) Verify(sys *dsm.System) error {
	ref := w.reference()
	wantPos, wantVel, wantKin := ref.pos, ref.vel, ref.kin
	n := w.cfg.Molecules
	const tol = 1e-9
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			if got := sys.SnapshotF64(w.fieldAddr(fPos, i, d)); math.Abs(got-wantPos[i][d]) > tol*(1+math.Abs(wantPos[i][d])) {
				return fmt.Errorf("water: pos[%d][%d] = %g, want %g", i, d, got, wantPos[i][d])
			}
			if got := sys.SnapshotF64(w.fieldAddr(fVel, i, d)); math.Abs(got-wantVel[i][d]) > tol*(1+math.Abs(wantVel[i][d])) {
				return fmt.Errorf("water: vel[%d][%d] = %g, want %g", i, d, got, wantVel[i][d])
			}
		}
	}
	if got := sys.SnapshotF64(w.kinEng); math.Abs(got-wantKin) > tol*(1+math.Abs(wantKin)) {
		return fmt.Errorf("water: kinEng = %g, want %g", got, wantKin)
	}
	return nil
}

// RacyVirAddr exposes the address of the seeded write-write race.
func (w *Water) RacyVirAddr() mem.Addr { return w.vir }
