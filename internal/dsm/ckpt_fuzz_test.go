package dsm

import (
	"bytes"
	"errors"
	"testing"

	"lrcrace/internal/castore"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/vc"
)

// fuzzConfig is the geometry of the fuzz seed runs and of the twin system
// the fuzzer decodes into.
func fuzzConfig(proto ProtocolKind) Config {
	return Config{
		NumProcs:   2,
		SharedSize: 8 * 1024,
		PageSize:   1024,
		Protocol:   proto,
		Detect:     true,
	}
}

// fuzzSeedCheckpoints runs a small two-process, two-epoch workload and
// returns every manifest it deposited together with the chunk store the
// manifests reference — real encoder output as the fuzz corpus.
func fuzzSeedCheckpoints(f *testing.F, proto ProtocolKind) ([][]byte, *castore.Store) {
	f.Helper()
	s, err := New(fuzzConfig(proto))
	if err != nil {
		f.Fatal(err)
	}
	s.keepCkpts = true
	words, err := s.AllocWords("w", 8)
	if err != nil {
		f.Fatal(err)
	}
	err = s.RunEpochs(2, func() EpochFunc {
		return func(p *Proc, e int32) {
			p.Lock(0)
			p.Write(words+mem.Addr(p.ID()*8), uint64(e)+1)
			p.Unlock(0)
			p.Write(words, uint64(p.ID())) // a race, so racy-word state serializes too
		}
	})
	if err != nil {
		f.Fatal(err)
	}
	var manifests [][]byte
	for proc := 0; proc < 2; proc++ {
		for e := int32(1); e <= 2; e++ {
			if m := s.ckpts.Get(proc, e); m != nil {
				manifests = append(manifests, m)
			}
		}
	}
	if len(manifests) == 0 {
		f.Fatal("seed run deposited no checkpoints")
	}
	return manifests, s.ckpts.Chunks()
}

// decodeIntoTwin decodes manifest b into a fresh process id of twin and, at
// process 0, restores the decoded detector state into twin's detector, so
// the process re-encodes exactly the state it was decoded from.
func decodeIntoTwin(twin *System, id int, b []byte, chunks *castore.Store) (*Proc, error) {
	p, det, err := decodeCheckpoint(twin, id, b, chunks)
	if det != nil {
		twin.detector.RestoreState(*det)
	}
	return p, err
}

// TestCheckpointFlagsCanonical: a flag byte other than 0 or 1 is manifest
// damage, not a second spelling of true.
func TestCheckpointFlagsCanonical(t *testing.T) {
	s := racyMWScenario().run(t, nil)
	blob := append([]byte(nil), s.ckpts.Get(1, 1)...)
	if _, _, err := decodeCheckpoint(s, 1, blob, s.ckpts.Chunks()); err != nil {
		t.Fatal(err)
	}
	owned := 25 + 2 + 4*4 + 4 + 1 // header, 4-entry VC, page count, page 0's state
	blob[owned] += 2
	if _, _, err := decodeCheckpoint(s, 1, blob, s.ckpts.Chunks()); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("owned flag byte %d: err = %v, want ErrCheckpointCorrupt", blob[owned], err)
	}
}

// TestCheckpointRangeChecks: a manifest naming a directory owner, lock
// holder, twin or stored bitmap that reconciliation or the next diff would
// index out of range with is manifest damage. Each case damages one field
// of a decoded process and re-encodes it, so the rest of the manifest
// stays valid and its chunks resolve.
func TestCheckpointRangeChecks(t *testing.T) {
	s := racyMWScenario().run(t, nil)
	const id = 1 // proc 1 of 4 is the home of page 1, not of page 0
	n, np, wpp := s.cfg.NumProcs, s.layout.NumPages, s.layout.WordsPerPage()
	bm := vc.IntervalID{Proc: id, Index: 1}
	cases := []struct {
		name   string
		damage func(p *Proc)
	}{
		{"undamaged", func(p *Proc) {}},
		{"home directory owner", func(p *Proc) { p.dirOwner[1] = n }},
		{"foreign directory owner", func(p *Proc) { p.dirOwner[0] = 0 }},
		{"lock last holder", func(p *Proc) { p.locks[9] = &lockState{lastHolder: n} }},
		{"lock last holder below -1", func(p *Proc) { p.locks[9] = &lockState{lastHolder: -2} }},
		{"twin length", func(p *Proc) { p.twins[0] = make([]byte, p.seg.PageSize-1) }},
		{"bitmap page", func(p *Proc) { p.store.Put(bm, mem.PageID(np), true, mem.NewBitmap(wpp)) }},
		{"bitmap words", func(p *Proc) { p.store.Put(bm, 0, true, mem.NewBitmap(wpp+64)) }},
	}
	for _, c := range cases {
		p, _, err := decodeCheckpoint(s, id, s.ckpts.Get(id, 1), s.ckpts.Chunks())
		if err != nil {
			t.Fatal(err)
		}
		c.damage(p)
		blob, _, _ := p.encodeCheckpointInto(s.ckpts.Chunks(), nil)
		_, _, err = decodeCheckpoint(s, id, blob, s.ckpts.Chunks())
		if c.name == "undamaged" {
			if err != nil {
				t.Fatalf("re-encoded manifest: %v", err)
			}
		} else if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: err = %v, want ErrCheckpointCorrupt", c.name, err)
		}
	}
}

// TestCheckpointReportChecks: a restored race report must be one the
// detector could have made before the manifest's epoch. Each case damages
// one report of the master's decoded detector state and re-encodes the
// master, so the rest of the manifest stays valid and its chunks resolve.
func TestCheckpointReportChecks(t *testing.T) {
	s := racyMWScenario().run(t, nil)
	twin, err := New(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	const line = 2
	n, l := s.cfg.NumProcs, s.layout
	moveTo := func(r *race.Report, pg mem.PageID, word int) {
		r.Page, r.Word, r.Addr = pg, word, l.PageBase(pg)+mem.Addr(word*mem.WordSize)
	}
	cases := []struct {
		name   string
		damage func(rs []race.Report)
	}{
		{"undamaged", func(rs []race.Report) {}},
		{"endpoint process", func(rs []race.Report) { rs[0].B.Interval.Proc = n }},
		{"page", func(rs []race.Report) { moveTo(&rs[0], mem.PageID(l.NumPages), 0) }},
		{"negative page", func(rs []race.Report) { moveTo(&rs[0], -1, 0) }},
		{"word", func(rs []race.Report) { moveTo(&rs[0], 0, l.WordsPerPage()) }},
		{"negative word", func(rs []race.Report) { moveTo(&rs[0], 1, -1) }},
		{"address", func(rs []race.Report) { rs[0].Addr += mem.WordSize }},
		{"kind", func(rs []race.Report) { rs[0].A.Kind = race.Write + 1 }},
		{"epoch of the manifest", func(rs []race.Report) { rs[len(rs)-1].Epoch = line }},
		{"negative epoch", func(rs []race.Report) { rs[0].Epoch = -1 }},
		{"epoch decreasing", func(rs []race.Report) { rs[0], rs[len(rs)-1] = rs[len(rs)-1], rs[0] }},
	}
	for _, c := range cases {
		p, det, err := decodeCheckpoint(twin, 0, s.ckpts.Get(0, line), s.ckpts.Chunks())
		if err != nil {
			t.Fatal(err)
		}
		if rs := det.Reports; len(rs) < 2 || rs[0].Epoch == rs[len(rs)-1].Epoch {
			t.Fatalf("line %d carries reports %v, want some of two epochs", line, rs)
		}
		c.damage(det.Reports)
		twin.detector.RestoreState(*det)
		blob, _, _ := p.encodeCheckpointInto(nil, nil)
		_, _, err = decodeCheckpoint(twin, 0, blob, s.ckpts.Chunks())
		if c.name == "undamaged" {
			if err != nil {
				t.Fatalf("re-encoded manifest: %v", err)
			}
		} else if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: err = %v, want ErrCheckpointCorrupt", c.name, err)
		}
	}
}

// FuzzDecodeCheckpoint: decoding must never panic, whatever the bytes — a
// checkpoint is read back at the most fragile moment there is,
// mid-recovery — and every rejection must carry one of the two typed
// errors so the rollback planner can fall back instead of crashing.
// Decoding is canonical: a manifest it accepts re-encodes, hash-only, to
// exactly its bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	manifests, chunks := fuzzSeedCheckpoints(f, MultiWriter)
	swManifests, swChunks := fuzzSeedCheckpoints(f, SingleWriter)
	manifests = append(manifests, swManifests...)
	twin, err := New(fuzzConfig(MultiWriter))
	if err != nil {
		f.Fatal(err)
	}

	for _, m := range manifests {
		f.Add(m)
		// Truncations: a torn write.
		f.Add(m[:len(m)/2])
		f.Add(m[:len(m)-1])
		// Bit flips: bad storage under the header, in the body, at the tail.
		for _, at := range []int{4, len(m) / 3, len(m) - 2} {
			flipped := append([]byte(nil), m...)
			flipped[at] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, src := range []*castore.Store{chunks, swChunks, nil} {
			for id := 0; id < 2; id++ {
				p, err := decodeIntoTwin(twin, id, data, src)
				if err != nil {
					if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointChunk) {
						t.Fatalf("untyped decode error: %v", err)
					}
					continue
				}
				if again, _, _ := p.encodeCheckpointInto(nil, nil); !bytes.Equal(again, data) {
					t.Fatalf("accepted manifest re-encodes to different bytes:\n in  %x\n out %x", data, again)
				}
			}
		}
	})
}
