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

// TestRemoteDispatchByteIdentical is the distributed-sweep acceptance
// test: the same 2×2 grid executed (a) by a local sweep pool and (b) by
// running the same sweep pool with a detection-service client as its
// executor produces a byte-identical plan manifest and a byte-identical
// aggregated metrics document.
func TestRemoteDispatchByteIdentical(t *testing.T) {
	mkPlan := func() *sweep.Plan {
		return &sweep.Plan{
			Apps:   []string{"FFT", "SOR"},
			Scales: []float64{0.25},
			Procs:  []int{2},
			Detect: []bool{true, false},
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Local reference.
	dirLocal := t.TempDir()
	local, err := sweep.New(mkPlan(), sweep.Options{Workers: 2, Dir: dirLocal})
	if err != nil {
		t.Fatal(err)
	}
	sumLocal, err := local.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sumLocal.OK != sumLocal.Total {
		t.Fatalf("local sweep not clean: %+v", sumLocal)
	}

	// Remote: the same grid through a service, as the pool's executor —
	// what `sweeprun -remote` runs, minus the dispatcher's failover.
	svc := New(Config{MaxSessions: 4})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()
	client := NewClient(ts.URL)

	dirRemote := t.TempDir()
	remote, err := sweep.New(mkPlan(), sweep.Options{Workers: 2, Dir: dirRemote})
	if err != nil {
		t.Fatal(err)
	}
	if pending := remote.Summary().Missing; pending != 4 {
		t.Fatalf("pending = %d cells, want 4", pending)
	}
	if _, err := remote.RunWith(ctx, func(ctx context.Context, c sweep.Cell) (*sweep.CellResult, error) {
		return client.RunCell(ctx, c, nil, 0)
	}); err != nil {
		t.Fatal(err)
	}
	sumRemote := remote.Summary()
	if sumRemote.OK != sumRemote.Total || sumRemote.Missing != 0 {
		t.Fatalf("remote sweep not clean: %+v", sumRemote)
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

	// The deterministic aggregated metrics document must be byte-identical:
	// the service ran each cell with the same scoped-recorder setup the
	// local pool uses, and the pool adopted the results the same way.
	var bufLocal, bufRemote bytes.Buffer
	if err := local.WriteMetricsJSON(&bufLocal); err != nil {
		t.Fatal(err)
	}
	if err := remote.WriteMetricsJSON(&bufRemote); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufLocal.Bytes(), bufRemote.Bytes()) {
		t.Errorf("aggregated metrics JSON differs: local %d bytes, remote %d bytes",
			bufLocal.Len(), bufRemote.Len())
	}

	// Race counts agree cell by cell.
	localRaces := map[string]int{}
	for _, r := range sumLocal.Cells {
		localRaces[r.ID] = r.Races
	}
	for _, r := range sumRemote.Cells {
		if r.Races != localRaces[r.ID] {
			t.Errorf("cell %s: remote %d races, local %d", r.ID, r.Races, localRaces[r.ID])
		}
	}

	// The remote directory resumes like a local one: everything terminal,
	// nothing pending.
	resumed, err := sweep.New(mkPlan(), sweep.Options{Dir: dirRemote})
	if err != nil {
		t.Fatal(err)
	}
	if p := resumed.Summary().Missing; p != 0 {
		t.Errorf("resume after remote dispatch still has %d pending cells", p)
	}
}
