package dsm

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lrcrace/internal/mem"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/ckpt_pins.txt from the current checkpoint codec")

// The pinned runs are lock-free and every shared page has one writer per
// word, so no grant order or diff order can vary: two runs deposit
// byte-identical checkpoints. Each has an unsynchronized read of a word
// another process writes in the same epoch, so the master's extras carry
// racy records.

// racySWScenario is the single-writer shape: each process writes a word of
// the page it is home (and owner) of, then reads its neighbour's.
func racySWScenario() recoveryScenario {
	return recoveryScenario{
		name:   "racy-sw",
		proto:  SingleWriter,
		epochs: 3,
		setup: func(t *testing.T, s *System) func() EpochFunc {
			base, err := s.Alloc("pages", 4*1024)
			if err != nil {
				t.Fatal(err)
			}
			return func() EpochFunc {
				return func(p *Proc, e int32) {
					p.Write(base+mem.Addr(p.ID()*1024), uint64(e)+1)
					p.Read(base + mem.Addr((p.ID()+1)%p.N()*1024))
				}
			}
		},
	}
}

// racyMWScenario is the multi-writer shape: false sharing of one page, so
// the non-home writers twin it and flush diffs, plus proc 2 reading the
// word proc 1 writes.
func racyMWScenario() recoveryScenario {
	return recoveryScenario{
		name:   "racy-mw",
		proto:  MultiWriter,
		epochs: 3,
		setup: func(t *testing.T, s *System) func() EpochFunc {
			words, err := s.AllocWords("words", 16)
			if err != nil {
				t.Fatal(err)
			}
			return func() EpochFunc {
				return func(p *Proc, e int32) {
					p.Write(words+mem.Addr(p.ID()*8), uint64(e)+1)
					switch p.ID() {
					case 1:
						p.Write(words+mem.Addr(10*8), uint64(e)+1)
					case 2:
						p.Read(words + mem.Addr(10*8))
					}
				}
			}
		},
	}
}

// TestCheckpointBytesPinned holds every checkpoint a few lock-free runs
// deposit to testdata/ckpt_pins.txt: per (run, proc, epoch), the SHA-256 of
// the manifest and of its chunk-key list. The runs cover both
// protocols, racy records in the master's extras, and a run after a
// rollback. A codec edit that moves one manifest byte or one chunk
// reference fails here. Rewrite the pins (-update-pins) only for a change
// meant to alter the checkpoint format.
func TestCheckpointBytesPinned(t *testing.T) {
	runs := []struct {
		name  string
		sc    recoveryScenario
		crash *CrashPlan
	}{
		{"racy-sw", racySWScenario(), nil},
		{"racy-mw", racyMWScenario(), nil},
		{"racy-mw/rollback", racyMWScenario(), &CrashPlan{Victim: 2, Epoch: 2, Point: CrashMidInterval, AfterN: 1}},
	}
	var b strings.Builder
	b.WriteString("# SHA-256 of each deposited checkpoint manifest and of its chunk-key list (little-endian keys).\n")
	b.WriteString("# Rewrite with: go test ./internal/dsm -run TestCheckpointBytesPinned -update-pins\n")
	for _, r := range runs {
		s := r.sc.run(t, r.crash)
		if r.crash != nil {
			if rs := s.RecoveryStats(); rs.Recoveries != 1 || rs.LastEpoch != r.crash.Epoch {
				t.Fatalf("%s: recovery stats %+v, want one rollback to epoch %d", r.name, rs, r.crash.Epoch)
			}
		}
		if len(s.DetectorState().RacyRecords) == 0 {
			t.Fatalf("%s: no racy records, so the master extras pin nothing", r.name)
		}
		for proc := 0; proc < 4; proc++ {
			for epoch := int32(1); epoch <= r.sc.epochs; epoch++ {
				ent, ok := s.ckpts.byProc[proc][epoch]
				if !ok {
					t.Fatalf("%s: no checkpoint for proc %d epoch %d", r.name, proc, epoch)
				}
				h := sha256.New()
				for _, k := range ent.keys {
					h.Write(binary.LittleEndian.AppendUint64(nil, uint64(k)))
				}
				fmt.Fprintf(&b, "%s p%d e%d %x %x\n", r.name, proc, epoch, sha256.Sum256(ent.manifest), h.Sum(nil))
			}
		}
	}
	path := filepath.Join("testdata", "ckpt_pins.txt")
	if *updatePins {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
}
