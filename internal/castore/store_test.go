package castore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	blobs := [][]byte{[]byte("alpha"), []byte("beta"), {0, 1, 2, 3}, {}}
	var addrs []Addr
	for _, b := range blobs {
		a, isNew := s.Put(b)
		if !isNew {
			t.Fatalf("first Put of %q not new", b)
		}
		if a != Sum(b) {
			t.Fatalf("Put address != Sum for %q", b)
		}
		addrs = append(addrs, a)
	}
	for i, a := range addrs {
		got, err := s.Get(a)
		if err != nil {
			t.Fatalf("Get(%s): %v", a, err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("Get(%s) = %q, want %q", a, got, blobs[i])
		}
	}
	if s.Len() != len(blobs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(blobs))
	}
}

func TestDedupAndStats(t *testing.T) {
	s := New()
	b := []byte("shared page contents")
	a1, new1 := s.Put(b)
	a2, new2 := s.Put(b)
	if a1 != a2 {
		t.Fatal("identical contents produced different addresses")
	}
	if !new1 || new2 {
		t.Fatalf("newness = %v,%v, want true,false", new1, new2)
	}
	st := s.Stats()
	if st.Puts != 2 || st.Hits != 1 {
		t.Fatalf("Puts/Hits = %d/%d, want 2/1", st.Puts, st.Hits)
	}
	if st.StoredBytes != int64(len(b)) || st.LogicalBytes != int64(2*len(b)) {
		t.Fatalf("Stored/Logical = %d/%d, want %d/%d",
			st.StoredBytes, st.LogicalBytes, len(b), 2*len(b))
	}
	if s.Len() != 1 || st.LiveBytes != int64(len(b)) {
		t.Fatalf("Len/LiveBytes = %d/%d, want 1/%d", s.Len(), st.LiveBytes, len(b))
	}
}

func TestRefcountFreesAtZero(t *testing.T) {
	s := New()
	b := []byte("twin")
	a, _ := s.Put(b)
	s.Put(b) // refs = 2
	s.Unref(a)
	if !s.Contains(a) {
		t.Fatal("chunk freed with one reference outstanding")
	}
	s.Unref(a)
	if s.Contains(a) {
		t.Fatal("chunk survived its last Unref")
	}
	if _, err := s.Get(a); !errors.Is(err, ErrMissing) {
		t.Fatalf("Get after free: %v, want ErrMissing", err)
	}
	if st := s.Stats(); st.FreedBytes != int64(len(b)) || st.LiveBytes != 0 {
		t.Fatalf("Freed/Live = %d/%d, want %d/0", st.FreedBytes, st.LiveBytes, len(b))
	}
	s.Unref(a) // absent address: must be a no-op
}

func TestTamperDetectedAndHealed(t *testing.T) {
	s := New()
	b := []byte("page bytes under test")
	a, _ := s.Put(b)
	if !s.Tamper(a) {
		t.Fatal("Tamper found nothing to corrupt")
	}
	if _, err := s.Get(a); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of tampered chunk: %v, want ErrCorrupt", err)
	}
	// A fresh deposit of the true contents is authoritative: it heals.
	if _, isNew := s.Put(b); isNew {
		t.Fatal("healing Put reported the chunk as new")
	}
	got, err := s.Get(a)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatalf("Get after heal = %q, %v", got, err)
	}
	if st := s.Stats(); st.Heals != 1 || st.Tampers != 1 {
		t.Fatalf("Heals/Tampers = %d/%d, want 1/1", st.Heals, st.Tampers)
	}
}

func TestDeleteDetectedAndHealed(t *testing.T) {
	s := New()
	b := []byte("deleted out from under its refcount")
	a, _ := s.Put(b)
	if !s.Delete(a) {
		t.Fatal("Delete found nothing to drop")
	}
	if _, err := s.Get(a); !errors.Is(err, ErrMissing) {
		t.Fatalf("Get of deleted chunk: %v, want ErrMissing", err)
	}
	if s.Delete(a) {
		t.Fatal("second Delete of the same chunk reported success")
	}
	s.Put(b)
	if got, err := s.Get(a); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("Get after healing re-Put = %q, %v", got, err)
	}
}

func TestTamperEmptyChunk(t *testing.T) {
	s := New()
	a, _ := s.Put(nil)
	if got, err := s.Get(a); err != nil || len(got) != 0 {
		t.Fatalf("Get of empty chunk = %q, %v", got, err)
	}
	if !s.Tamper(a) {
		t.Fatal("Tamper of empty chunk reported nothing there")
	}
	if _, err := s.Get(a); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of tampered empty chunk: %v, want ErrCorrupt", err)
	}
}

func TestAddrsSortedDeterministic(t *testing.T) {
	s := New()
	for _, b := range [][]byte{[]byte("c"), []byte("a"), []byte("b"), []byte("d")} {
		s.Put(b)
	}
	addrs := s.Addrs()
	if len(addrs) != 4 {
		t.Fatalf("len(Addrs) = %d, want 4", len(addrs))
	}
	if !sort.SliceIsSorted(addrs, func(i, j int) bool {
		return bytes.Compare(addrs[i][:], addrs[j][:]) < 0
	}) {
		t.Fatal("Addrs not lexicographically sorted")
	}
	again := s.Addrs()
	for i := range addrs {
		if addrs[i] != again[i] {
			t.Fatal("Addrs enumeration not stable")
		}
	}
}

// storeImage is everything observable about a store: accounting, and per
// address the refcount and resident bytes.
func storeImage(s *Store) (Stats, map[Addr]chunk) {
	img := make(map[Addr]chunk, len(s.chunks))
	for a, c := range s.chunks {
		img[a] = chunk{data: c.data, refs: c.refs}
	}
	return s.stats, img
}

// TestPutAtMatchesPut: depositors that remember addresses (PutAt, each
// with its own hint per slot and one hint per slot shared by both) and one
// that does not (Put) leave byte-identical stores — Stats bar Hashed,
// refcounts, resident data and every returned (address, new) pair — across
// deposits, fault injection and release, whether either remembered address
// is right, stale, or nonsense. The hints buy hashes saved, never a
// different answer. Page-sized contents (P, Q, R: a power of two long) live
// in pooled buffers, so a chunk freed by a drain, heal or delete hands its
// buffer to the next deposit of that size; Get answers the same from both
// stores after every step (for the step's contents) and at the end (for
// all).
func TestPutAtMatchesPut(t *testing.T) {
	A, B, C := []byte("page contents A"), []byte("page contents B"), []byte("page contents C, longer")
	empty := []byte{}
	P, Q, R := bytes.Repeat([]byte{0x11}, 64), bytes.Repeat([]byte{0x22}, 64), bytes.Repeat([]byte("page R, "), 8)
	type op struct {
		kind    string // put | hint | shared | tamper | delete | unref | drain | get | missing
		slot    int    // put, hint, shared: which remembered addresses to offer and update
		content []byte
		who     int // put, hint: which of the two depositors
	}
	put := func(slot int, b []byte) op { return op{"put", slot, b, 0} }
	put1 := func(slot int, b []byte) op { return op{"put", slot, b, 1} }
	cases := []struct {
		name string
		ops  []op
	}{
		{"unchanged page re-deposited", []op{put(0, A), put(0, A), put(0, A)}},
		{"page changes then changes back", []op{put(0, A), put(0, B), put(0, A), put(0, A)}},
		{"two pages share contents", []op{put(0, A), put(1, A), put(0, A), put(1, B), put(1, A)}},
		{"tampered chunk healed by the next true deposit", []op{put(0, A), {"tamper", 0, A, 0}, put(0, A), put(0, A)}},
		{"deleted chunk healed by the next true deposit", []op{put(0, A), {"delete", 0, A, 0}, put(0, A), put(0, A)}},
		{"hint freed by unref-to-zero", []op{put(0, A), {"drain", 0, A, 0}, put(0, A), put(0, A)}},
		{"one reference dropped, chunk stays", []op{put(0, A), put(0, A), {"unref", 0, A, 0}, put(0, A)}},
		{"stale hint names other resident contents", []op{put(0, A), put(1, B), {"hint", 0, B, 0}, put(0, A), {"hint", 1, C, 0}, put(1, B)}},
		{"stale hint after tamper of the other chunk", []op{put(0, A), put(1, B), {"tamper", 0, B, 0}, {"hint", 0, B, 0}, put(0, A), put(1, B)}},
		{"empty chunk, deleted and healed", []op{put(0, empty), put(0, empty), {"delete", 0, empty, 0}, put(0, empty), {"tamper", 0, empty, 0}, put(0, empty)}},
		{"tamper, unref to zero, deposit again", []op{put(0, A), {"tamper", 0, A, 0}, {"drain", 0, A, 0}, put(0, A)}},
		{"second depositor finds the first's copy", []op{put(0, A), put1(0, A), put(0, B), put1(0, B), put1(0, B)}},
		{"second depositor's copy differs", []op{put(0, A), put1(0, B), put(0, A), put1(0, A)}},
		{"shared hint tampered, own hint empty", []op{put(0, A), {"tamper", 0, A, 0}, put1(0, A), put1(0, A)}},
		{"shared hint deleted", []op{put(0, A), {"delete", 0, A, 0}, put1(0, A), put(0, A)}},
		{"shared hint names other resident contents", []op{put(0, A), put(1, B), {"shared", 0, B, 0}, put1(0, A), {"shared", 1, C, 0}, put1(1, B)}},
		{"both hints wrong", []op{put(0, A), put(1, B), {"hint", 0, B, 1}, {"shared", 0, B, 0}, put1(0, A), put1(0, A)}},
		{"drained chunk's buffer holds the next deposit", []op{put(0, P), {"drain", 0, P, 0}, put(0, Q), {"missing", 0, P, 0}, {"get", 0, Q, 0}}},
		{"tampered chunk drained, no flipped bit in the next deposit", []op{put(0, P), {"tamper", 0, P, 0}, {"drain", 0, P, 0}, put(0, R), {"get", 0, R, 0}, {"missing", 0, P, 0}}},
		{"healed chunk's old buffer holds the next deposit", []op{put(0, P), {"tamper", 0, P, 0}, put(0, P), put(1, Q), {"get", 0, P, 0}, {"get", 0, Q, 0}}},
		{"deleted chunk's buffer holds the next deposit", []op{put(0, P), {"delete", 0, P, 0}, put(1, Q), {"missing", 0, P, 0}, put(0, P), {"get", 0, P, 0}, {"get", 0, Q, 0}}},
	}
	// Plus seeded random sequences over the same alphabet.
	rng := rand.New(rand.NewSource(13))
	contents := [][]byte{A, B, C, empty, P, Q, R}
	kinds := []string{"put", "put", "put", "put", "hint", "shared", "tamper", "delete", "unref", "drain"}
	for i := 0; i < 200; i++ {
		var ops []op
		for j := 0; j < 30; j++ {
			ops = append(ops, op{kinds[rng.Intn(len(kinds))], rng.Intn(3), contents[rng.Intn(len(contents))], rng.Intn(2)})
		}
		cases = append(cases, struct {
			name string
			ops  []op
		}{fmt.Sprintf("random-%d", i), ops})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, hinted := New(), New()
			var own [2][3]Addr
			var shared [3]Addr
			// sameGets checks that both stores answer Get alike after op i.
			sameGets := func(i int, cs ...[]byte) {
				t.Helper()
				for _, c := range cs {
					wb, werr := plain.Get(Sum(c))
					gb, gerr := hinted.Get(Sum(c))
					if !bytes.Equal(gb, wb) || errors.Is(gerr, ErrMissing) != errors.Is(werr, ErrMissing) || errors.Is(gerr, ErrCorrupt) != errors.Is(werr, ErrCorrupt) {
						t.Fatalf("after op %d: Get(%q) = %q, %v from PutAt's store, %q, %v from Put's", i, c, gb, gerr, wb, werr)
					}
				}
			}
			for i, o := range tc.ops {
				a := Sum(o.content)
				switch o.kind {
				case "put":
					wa, wnew := plain.Put(o.content)
					ga, gnew := hinted.PutAt(own[o.who][o.slot], shared[o.slot], o.content)
					if ga != wa || gnew != wnew {
						t.Fatalf("op %d: PutAt = %v,%v; Put = %v,%v", i, ga, gnew, wa, wnew)
					}
					if ga != a {
						t.Fatalf("op %d: deposit of %q answered with address %v, contents hash to %v", i, o.content, ga, a)
					}
					own[o.who][o.slot] = ga
					shared[o.slot] = ga
				case "hint":
					own[o.who][o.slot] = a
				case "shared":
					shared[o.slot] = a
				case "tamper":
					if g, w := hinted.Tamper(a), plain.Tamper(a); g != w {
						t.Fatalf("op %d: Tamper = %v vs %v", i, g, w)
					}
				case "delete":
					if g, w := hinted.Delete(a), plain.Delete(a); g != w {
						t.Fatalf("op %d: Delete = %v vs %v", i, g, w)
					}
				case "unref":
					plain.Unref(a)
					hinted.Unref(a)
				case "drain":
					for plain.Contains(a) {
						plain.Unref(a)
						hinted.Unref(a)
					}
				case "get", "missing":
					for _, s := range []*Store{plain, hinted} {
						got, err := s.Get(a)
						if o.kind == "get" && (err != nil || !bytes.Equal(got, o.content)) {
							t.Fatalf("op %d: Get(%q) = %q, %v", i, o.content, got, err)
						}
						if o.kind == "missing" && !errors.Is(err, ErrMissing) {
							t.Fatalf("op %d: Get(%q) after release: %v, want ErrMissing", i, o.content, err)
						}
					}
				}
				wst, wimg := storeImage(plain)
				gst, gimg := storeImage(hinted)
				if wst.Hashed != wst.Puts || gst.Hashed > wst.Hashed {
					t.Fatalf("op %d (%s): Hashed %d of %d Puts, %d of %d PutAts", i, o.kind, wst.Hashed, wst.Puts, gst.Hashed, gst.Puts)
				}
				wst.Hashed, gst.Hashed = 0, 0
				if gst != wst {
					t.Fatalf("op %d (%s): Stats diverge:\n PutAt %+v\n Put   %+v", i, o.kind, gst, wst)
				}
				if !reflect.DeepEqual(gimg, wimg) {
					t.Fatalf("op %d (%s): resident chunks diverge:\n PutAt %v\n Put   %v", i, o.kind, gimg, wimg)
				}
				sameGets(i, o.content)
			}
			sameGets(len(tc.ops), contents...)
		})
	}
}

// TestPutHealCounted pins the heal path the hint must not bypass: offering
// the true bytes at the address of their tampered copy re-hashes, heals and
// counts, and only the deposit after that is the hash-free hit.
func TestPutHealCounted(t *testing.T) {
	s := New()
	b := bytes.Repeat([]byte{0xab}, 4096)
	a, _ := s.PutAt(Addr{}, Addr{}, b)
	s.Tamper(a)
	if got, _ := s.PutAt(a, Addr{}, b); got != a {
		t.Fatalf("healing PutAt answered %v, want %v", got, a)
	}
	if st := s.Stats(); st.Heals != 1 || st.Hits != 1 {
		t.Fatalf("after healing deposit: Heals/Hits = %d/%d, want 1/1", st.Heals, st.Hits)
	}
	if got, err := s.Get(a); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("Get after heal: %v", err)
	}
	s.PutAt(a, Addr{}, b)
	s.PutAt(Addr{}, a, b)
	if st := s.Stats(); st.Heals != 1 || st.Hits != 3 || st.Puts != 4 || st.LogicalBytes != 4*4096 || st.Hashed != 2 {
		t.Fatalf("after clean hits at either hint: %+v, want only the first deposit and the heal hashed", st)
	}
	// A clean hit keeps nothing of the caller's buffer and allocates nothing,
	// with or without the remembered address.
	for name, deposit := range map[string]func(){
		"PutAt":              func() { s.PutAt(a, Addr{}, b) },
		"PutAt, shared hint": func() { s.PutAt(Addr{}, a, b) },
		"Put":                func() { s.Put(b) },
	} {
		if n := testing.AllocsPerRun(100, deposit); n != 0 {
			t.Errorf("%s of a resident chunk: %v allocs per run, want 0", name, n)
		}
	}
}
