package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lrcrace/internal/sweep"
)

// chaosSeedPlan is a grid whose Seeds axis is kept alive by its chaotic
// crash axis, so it also reaches the cells that consume no seed: FFT runs
// under seed 0 and seed 1, as two cells with two IDs. A service that
// re-decides such a cell's seed names its result after the other cell.
func chaosSeedPlan() *sweep.Plan {
	return &sweep.Plan{
		Apps:       []string{"ChaosTSP", "FFT"},
		Scales:     []float64{0.25},
		Procs:      []int{2},
		CrashModes: []string{"none", "single"},
		Seeds:      []int64{0, 1},
	}
}

// runLocal runs the plan in a local sweep pool with a checkpoint dir.
func runLocal(t *testing.T, ctx context.Context, plan *sweep.Plan) (*sweep.Sweep, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := sweep.New(plan, sweep.Options{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK != sum.Total {
		t.Fatalf("local sweep not clean: %+v", sum)
	}
	return s, dir
}

func metricsDoc(t *testing.T, s *sweep.Sweep) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRemoteDispatchByteIdentical is the distributed-sweep acceptance
// test: each grid executed (a) by a local sweep pool and (b) by the same
// sweep pool with a detection-service client as its executor finishes
// every cell ok under its own ID, with equal race counts per cell and a
// byte-identical plan manifest. Every grid must produce the same
// aggregated metrics document in two local runs, and the remote run must
// produce it too — the crash-recovering chaos grid included, since its
// retries and link deaths fire on the scheduler's virtual clock.
func TestRemoteDispatchByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plan  func() *sweep.Plan
		cells int
	}{
		{"fft-sor", func() *sweep.Plan {
			return &sweep.Plan{
				Apps:   []string{"FFT", "SOR"},
				Scales: []float64{0.25},
				Procs:  []int{2},
				Detect: []bool{true, false},
			}
		}, 4},
		{"chaos-seeds", chaosSeedPlan, 6},
		// A non-lossy wire template rides on each cell's request.
		{"jitter-delay", func() *sweep.Plan {
			return &sweep.Plan{
				Apps:   []string{"FFT", "SOR"},
				Scales: []float64{0.25},
				Procs:  []int{2},
				Seeds:  []int64{0, 1},
				Faults: &sweep.FaultAxis{JitterUS: 20},
			}
		}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			// Local reference, run twice first, to show that its metrics
			// document is deterministic at all.
			local, dirLocal := runLocal(t, ctx, tc.plan())
			docLocal := metricsDoc(t, local)
			again, _ := runLocal(t, ctx, tc.plan())
			if !bytes.Equal(docLocal, metricsDoc(t, again)) {
				t.Fatalf("%s: two local runs produce different metrics documents", tc.name)
			}

			// Remote: the same grid through a service, as the pool's executor —
			// what `sweeprun -remote` runs, minus the dispatcher's failover.
			svc := New(Config{MaxSessions: 4})
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			defer svc.Close()
			client := NewClient(ts.URL)

			dirRemote := t.TempDir()
			remote, err := sweep.New(tc.plan(), sweep.Options{Workers: 2, Dir: dirRemote})
			if err != nil {
				t.Fatal(err)
			}
			total := tc.cells
			if pending := remote.Summary().Missing; pending != total {
				t.Fatalf("pending = %d cells, want %d", pending, total)
			}
			if _, err := remote.RunWith(ctx, func(ctx context.Context, c sweep.Cell) (*sweep.CellResult, error) {
				return client.RunCell(ctx, c)
			}); err != nil {
				t.Fatal(err)
			}

			// Every cell ok under its own ID, with the local distinct and
			// dynamic race counts.
			localRaces := map[string]sweep.CellResult{}
			for _, r := range local.Summary().Cells {
				localRaces[r.ID] = r
			}
			sumRemote := remote.Summary()
			if sumRemote.OK != total || sumRemote.Missing != 0 || len(sumRemote.Cells) != total {
				t.Fatalf("remote sweep not clean: %+v", sumRemote)
			}
			for i, r := range sumRemote.Cells {
				c := remote.Cells()[i]
				if r.ID != c.ID || r.Status != sweep.StatusOK {
					t.Errorf("cell %s: remote result %s %s", c.ID, r.ID, r.Status)
				}
				l := localRaces[r.ID]
				if r.DistinctRaces != l.DistinctRaces {
					t.Errorf("cell %s: remote %d distinct races, local %d", r.ID, r.DistinctRaces, l.DistinctRaces)
				}
				if r.Races != l.Races {
					t.Errorf("cell %s: remote %d races, local %d", r.ID, r.Races, l.Races)
				}
			}

			// The manifests must be byte-identical (same plan, same grid).
			mLocal, err := os.ReadFile(filepath.Join(dirLocal, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			mRemote, err := os.ReadFile(filepath.Join(dirRemote, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mLocal, mRemote) {
				t.Error("manifest.json differs between local and remote execution")
			}

			// The service ran each cell with the same scoped-recorder setup the
			// local pool uses, and the pool adopted the results the same way.
			if docRemote := metricsDoc(t, remote); !bytes.Equal(docLocal, docRemote) {
				t.Errorf("aggregated metrics JSON differs: local %d bytes, remote %d bytes",
					len(docLocal), len(docRemote))
			}

			// The remote directory resumes like a local one: everything
			// terminal, nothing pending.
			resumed, err := sweep.New(tc.plan(), sweep.Options{Dir: dirRemote})
			if err != nil {
				t.Fatal(err)
			}
			if p := resumed.Summary().Missing; p != 0 {
				t.Errorf("resume after remote dispatch still has %d pending cells", p)
			}
		})
	}
}
