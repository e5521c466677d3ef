package castore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	blobs := [][]byte{[]byte("alpha"), []byte("beta"), {0, 1, 2, 3}, {}}
	var addrs []Key
	for _, b := range blobs {
		a, isNew := s.Put(b)
		if !isNew {
			t.Fatalf("first Put of %q not new", b)
		}
		if a != fingerprint(b) {
			t.Fatalf("Put key %s, fingerprint of %q is %s", a, b, fingerprint(b))
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
		t.Fatal("identical contents produced different keys")
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
	s.Unref(a) // absent key: must be a no-op
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

// resident is what a store holds under one key.
type resident struct {
	data    []byte
	refs    int
	damaged bool
}

// storeImage is everything observable about a store: accounting, and per
// key the refcount, resident bytes and whether a fault hook damaged them.
func storeImage(s *Store) (Stats, map[Key]resident) {
	img := make(map[Key]resident, s.Len())
	for _, head := range s.chains {
		for c := head; c != nil; c = c.next {
			img[c.key] = resident{data: c.data, refs: c.refs, damaged: c.lost != nil}
		}
	}
	return s.Stats(), img
}

// TestPutAtMatchesPut: depositors that put at a key they remember (Ref of
// the key each last deposited a slot's bytes under, while the slot is
// clean, and Put when it is dirty or the store refuses the Ref) and one
// that remembers nothing (Put) leave byte-identical stores — Stats bar
// Hashed, refcounts, resident data and every returned (key, new) pair —
// across deposits, fault injection and release. A slot is clean while its
// bytes are the ones its depositor last deposited and no "hint" (that
// depositor's memory of the slot goes stale) or "shared" (both
// depositors') marked it dirty since. The remembered keys buy fingerprints
// saved, never a different answer. Page-sized contents (P, Q, R: a power
// of two long) live in pooled buffers, so a chunk freed by a drain, heal or
// delete hands its buffer to the next deposit of that size; Get answers
// the same from both stores after every step (for the step's contents) and
// at the end (for all).
func TestPutAtMatchesPut(t *testing.T) {
	A, B, C := []byte("page contents A"), []byte("page contents B"), []byte("page contents C, longer")
	empty := []byte{}
	P, Q, R := bytes.Repeat([]byte{0x11}, 64), bytes.Repeat([]byte{0x22}, 64), bytes.Repeat([]byte("page R, "), 8)
	type op struct {
		kind    string // put | hint | shared | tamper | delete | unref | drain | get | missing
		slot    int    // put, hint, shared: which slot to deposit or mark dirty
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

	// memory is what a remembering depositor knows of one slot.
	type memory struct {
		key     Key
		content []byte
		clean   bool
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, remembering := New(), New()
			var mem [2][3]memory
			// sameGets checks that both stores answer Get alike after op i.
			sameGets := func(i int, cs ...[]byte) {
				t.Helper()
				for _, c := range cs {
					wb, werr := plain.Get(fingerprint(c))
					gb, gerr := remembering.Get(fingerprint(c))
					if !bytes.Equal(gb, wb) || errors.Is(gerr, ErrMissing) != errors.Is(werr, ErrMissing) || errors.Is(gerr, ErrCorrupt) != errors.Is(werr, ErrCorrupt) {
						t.Fatalf("after op %d: Get(%q) = %q, %v from the remembering store, %q, %v from Put's", i, c, gb, gerr, wb, werr)
					}
				}
			}
			for i, o := range tc.ops {
				a := fingerprint(o.content)
				switch o.kind {
				case "put":
					wa, wnew := plain.Put(o.content)
					m := &mem[o.who][o.slot]
					ga, gnew := m.key, false
					if !m.clean || !bytes.Equal(m.content, o.content) || !remembering.Ref(m.key) {
						ga, gnew = remembering.Put(o.content)
					}
					if ga != wa || gnew != wnew {
						t.Fatalf("op %d: remembering depositor got %v,%v; Put %v,%v", i, ga, gnew, wa, wnew)
					}
					if ga != a {
						t.Fatalf("op %d: deposit of %q answered with key %v, its fingerprint is %v", i, o.content, ga, a)
					}
					*m = memory{ga, o.content, true}
				case "hint":
					mem[o.who][o.slot].clean = false
				case "shared":
					mem[0][o.slot].clean, mem[1][o.slot].clean = false, false
				case "tamper":
					if g, w := remembering.Tamper(a), plain.Tamper(a); g != w {
						t.Fatalf("op %d: Tamper = %v vs %v", i, g, w)
					}
				case "delete":
					if g, w := remembering.Delete(a), plain.Delete(a); g != w {
						t.Fatalf("op %d: Delete = %v vs %v", i, g, w)
					}
				case "unref":
					plain.Unref(a)
					remembering.Unref(a)
				case "drain":
					for plain.Contains(a) {
						plain.Unref(a)
						remembering.Unref(a)
					}
				case "get", "missing":
					for _, s := range []*Store{plain, remembering} {
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
				gst, gimg := storeImage(remembering)
				if wst.Hashed != wst.Puts || gst.Hashed > wst.Hashed {
					t.Fatalf("op %d (%s): fingerprinted %d of %d Puts, %d of %d remembering deposits", i, o.kind, wst.Hashed, wst.Puts, gst.Hashed, gst.Puts)
				}
				wst.Hashed, gst.Hashed = 0, 0
				if gst != wst {
					t.Fatalf("op %d (%s): Stats diverge:\n remembering %+v\n Put         %+v", i, o.kind, gst, wst)
				}
				if !reflect.DeepEqual(gimg, wimg) {
					t.Fatalf("op %d (%s): resident chunks diverge:\n remembering %v\n Put         %v", i, o.kind, gimg, wimg)
				}
				sameGets(i, o.content)
			}
			sameGets(len(tc.ops), contents...)
		})
	}
}

// TestPutHealCounted pins the heal path Ref must not bypass: the store
// refuses a Ref of its tampered chunk, so the caller's deposit of the true
// bytes fingerprints, heals and counts, and only the Ref after that is the
// fingerprint-free hit.
func TestPutHealCounted(t *testing.T) {
	s := New()
	b := bytes.Repeat([]byte{0xab}, 4096)
	a, _ := s.Put(b)
	s.Tamper(a)
	if s.Ref(a) {
		t.Fatal("Ref of a tampered chunk accepted")
	}
	if got, _ := s.Put(b); got != a {
		t.Fatalf("healing Put answered %v, want %v", got, a)
	}
	if st := s.Stats(); st.Heals != 1 || st.Hits != 1 {
		t.Fatalf("after healing deposit: Heals/Hits = %d/%d, want 1/1", st.Heals, st.Hits)
	}
	if got, err := s.Get(a); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("Get after heal: %v", err)
	}
	if !s.Ref(a) || !s.Ref(a) {
		t.Fatal("Ref of a healed chunk refused")
	}
	if st := s.Stats(); st.Heals != 1 || st.Hits != 3 || st.Puts != 4 || st.LogicalBytes != 4*4096 || st.Hashed != 2 {
		t.Fatalf("after two Refs: %+v, want only the first deposit and the heal fingerprinted", st)
	}
	s.Delete(a)
	if s.Ref(a) || s.Ref(a+1) {
		t.Fatal("Ref of a deleted or absent chunk accepted")
	}
	s.Put(b)
	// A clean hit keeps nothing of the caller's buffer and allocates nothing,
	// with or without the remembered key.
	for name, deposit := range map[string]func(){
		"Ref": func() { s.Ref(a) },
		"Put": func() { s.Put(b) },
	} {
		if n := testing.AllocsPerRun(100, deposit); n != 0 {
			t.Errorf("%s of a resident chunk: %v allocs per run, want 0", name, n)
		}
	}
}

// collide returns a copy of b that differs from it in its first byte and
// in the four bytes at off and has the same CRC-32C. CRC is affine over
// GF(2) for a fixed length, and the 32 bits of four consecutive bytes map
// onto all 32 bits of the checksum, so some flips of those bits cancel the
// first byte's change; Gaussian elimination finds them.
func collide(b []byte, off int) []byte {
	crc := func(x []byte) uint32 { return crc32.Checksum(x, castagnoli) }
	base := crc(b)
	out := bytes.Clone(b)
	out[0] ^= 1
	// basis[bit] is a reduced column vector with leading bit bit, and
	// masks[bit] the free bits whose flips sum to it.
	var basis, masks [32]uint32
	for i := 0; i < 32; i++ {
		flipped := bytes.Clone(b)
		flipped[off+i/8] ^= 1 << (i % 8)
		v, m := crc(flipped)^base, uint32(1)<<i
		for bit := 31; bit >= 0 && v != 0; bit-- {
			if v&(1<<bit) == 0 {
				continue
			}
			if basis[bit] == 0 {
				basis[bit], masks[bit] = v, m
				break
			}
			v, m = v^basis[bit], m^masks[bit]
		}
	}
	want, flips := crc(out)^base, uint32(0)
	for bit := 31; bit >= 0; bit-- {
		if want&(1<<bit) != 0 {
			want, flips = want^basis[bit], flips^masks[bit]
		}
	}
	if want != 0 {
		panic("collide: four bytes do not span the checksum")
	}
	for i := 0; i < 32; i++ {
		if flips&(1<<i) != 0 {
			out[off+i/8] ^= 1 << (i % 8)
		}
	}
	return out
}

// collidingPages returns two different 4 KiB pages with one fingerprint.
func collidingPages() (x, y []byte) {
	x = make([]byte, 4096)
	for i := range x {
		x[i] = byte(i * 7)
	}
	return x, collide(x, 2048)
}

// TestCollidingChunks: two different chunks under one fingerprint each get
// an entry of their own, under distinct keys, and no operation on one
// touches the other.
func TestCollidingChunks(t *testing.T) {
	x, y := collidingPages()
	if bytes.Equal(x, y) || fingerprint(x) != fingerprint(y) {
		t.Fatalf("collidingPages: equal %v, fingerprints %s and %s", bytes.Equal(x, y), fingerprint(x), fingerprint(y))
	}
	s := New()
	kx, newX := s.Put(x)
	ky, newY := s.Put(y)
	if !newX || !newY || kx == ky || s.Len() != 2 {
		t.Fatalf("Put x = %s,%v; Put y = %s,%v; %d resident, want two new chunks under distinct keys", kx, newX, ky, newY, s.Len())
	}
	if again, isNew := s.Put(y); again != ky || isNew {
		t.Fatalf("second Put of y = %s,%v, want %s,false", again, isNew, ky)
	}
	get := func(k Key, want []byte) {
		t.Helper()
		if got, err := s.Get(k); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s): %v, contents intact %v", k, err, bytes.Equal(got, want))
		}
	}
	get(kx, x)
	get(ky, y)

	// Tamper with x: only x fails, the deposit of y is still a plain hit,
	// and only the deposit of x heals.
	s.Tamper(kx)
	if _, err := s.Get(kx); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of tampered x: %v, want ErrCorrupt", err)
	}
	get(ky, y)
	if k, _ := s.Put(y); k != ky || s.Stats().Heals != 0 {
		t.Fatalf("Put of y beside tampered x = %s with %d heals, want %s and none", k, s.Stats().Heals, ky)
	}
	if k, _ := s.Put(x); k != kx || s.Stats().Heals != 1 {
		t.Fatalf("Put of x = %s with %d heals, want %s and one", k, s.Stats().Heals, kx)
	}
	get(kx, x)

	// Delete y: the deposit of x leaves it deleted, that of y heals it.
	s.Delete(ky)
	s.Put(x)
	if _, err := s.Get(ky); !errors.Is(err, ErrMissing) {
		t.Fatalf("Get of deleted y after a Put of x: %v, want ErrMissing", err)
	}
	if k, _ := s.Put(y); k != ky || s.Stats().Heals != 2 {
		t.Fatalf("Put of y = %s with %d heals, want %s and two", k, s.Stats().Heals, ky)
	}

	// Release x entirely: y stays, and a third colliding chunk takes the
	// freed index.
	for s.Contains(kx) {
		s.Unref(kx)
	}
	get(ky, y)
	z := collide(x, 1024)
	if kz, isNew := s.Put(z); kz != kx || !isNew {
		t.Fatalf("Put of a third colliding chunk = %s,%v, want the freed key %s, new", kz, isNew, kx)
	}
	get(kx, z)
	get(ky, y)
	if st := s.Stats(); st.Chunks != 2 || st.Heals != 2 || st.LiveBytes != 2*4096 {
		t.Fatalf("final stats %+v: want 2 chunks, 2 heals (both fault-injected), %d live bytes", st, 2*4096)
	}
}

// FuzzChunkStore drives random sequences of Put, Ref, Get, Tamper, Delete
// and Unref against a model: a map from key to which contents it holds,
// its refcount and the damage done to it. The contents include three 4 KiB
// chunks and two short ones that share fingerprints, so chain indexes are
// taken, freed and retaken. Every answer and every Stats field must match
// the model after every operation.
func FuzzChunkStore(f *testing.F) {
	x, y := collidingPages()
	short := []byte("short chunk!")
	contents := [][]byte{x, y, collide(x, 1024), short, collide(short, 4), {}}
	// Each operation is two bytes: what to do, and to which contents.
	f.Add([]byte{0, 0, 0, 1, 2, 0, 4, 0, 0, 1, 0, 0, 6, 1, 6, 1, 0, 2, 3, 2})
	f.Add([]byte{0, 3, 0, 4, 5, 3, 2, 3, 0, 4, 0, 3, 6, 4, 0, 4, 3, 4, 4, 5, 0, 5})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 6, 1, 0, 1, 5, 0, 4, 2, 0, 0, 0, 2, 2, 6, 2, 12})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type entry struct {
			content           int
			refs              int
			tampered, deleted bool
		}
		s, model := New(), make(map[Key]*entry)
		var want Stats
		size := func(e *entry) int64 { // bytes the store holds for e
			switch n := len(contents[e.content]); {
			case e.deleted:
				return 0
			case e.tampered && n == 0:
				return 1
			default:
				return int64(n)
			}
		}
		// keyOf names contents ci at one of its fingerprint's first chain
		// indexes, or, when resident, where the model holds it.
		keyOf := func(arg byte) (Key, *entry) {
			ci := int(arg) % len(contents)
			for k, e := range model {
				if e.content == ci && arg/byte(len(contents))%2 == 0 {
					return k, e
				}
			}
			k := fingerprint(contents[ci]) | Key(arg/byte(len(contents))%3)
			return k, model[k]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, ops[i+1]
			switch op {
			case 0, 1: // Put
				ci := int(arg) % len(contents)
				b := contents[ci]
				var wantKey Key
				var hit *entry
				used := make(map[Key]bool)
				for k, e := range model {
					if e.content == ci {
						wantKey, hit = k, e
					}
					used[k] = true
				}
				want.Puts++
				want.Hashed++
				want.LogicalBytes += int64(len(b))
				if hit != nil {
					want.Hits++
					if hit.tampered || hit.deleted {
						want.Heals++
						want.LiveBytes += int64(len(b)) - size(hit)
						hit.tampered, hit.deleted = false, false
					}
					hit.refs++
				} else {
					wantKey = fingerprint(b)
					for used[wantKey] {
						wantKey++
					}
					model[wantKey] = &entry{content: ci, refs: 1}
					want.StoredBytes += int64(len(b))
					want.LiveBytes += int64(len(b))
				}
				if k, isNew := s.Put(b); k != wantKey || isNew != (hit == nil) {
					t.Fatalf("op %d: Put(contents %d) = %s,%v, want %s,%v", i/2, ci, k, isNew, wantKey, hit == nil)
				}
			case 2: // Ref
				k, e := keyOf(arg)
				ok := e != nil && !e.tampered && !e.deleted
				if ok {
					e.refs++
					want.Puts++
					want.Hits++
					want.LogicalBytes += int64(len(contents[e.content]))
				}
				if got := s.Ref(k); got != ok {
					t.Fatalf("op %d: Ref(%s) = %v, want %v", i/2, k, got, ok)
				}
			case 3: // Get
				k, e := keyOf(arg)
				got, err := s.Get(k)
				switch {
				case e == nil || e.deleted:
					if !errors.Is(err, ErrMissing) {
						t.Fatalf("op %d: Get(%s) of nothing: %v, want ErrMissing", i/2, k, err)
					}
				case e.tampered:
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("op %d: Get(%s) of a tampered chunk: %v, want ErrCorrupt", i/2, k, err)
					}
				case err != nil || !bytes.Equal(got, contents[e.content]):
					t.Fatalf("op %d: Get(%s) = %v, contents %d intact %v", i/2, k, err, e.content, bytes.Equal(got, contents[e.content]))
				}
			case 4: // Tamper
				k, e := keyOf(arg)
				ok := e != nil && !e.tampered && !e.deleted
				if ok {
					before := size(e)
					e.tampered = true
					want.Tampers++
					want.LiveBytes += size(e) - before
				}
				if got := s.Tamper(k); got != ok {
					t.Fatalf("op %d: Tamper(%s) = %v, want %v", i/2, k, got, ok)
				}
			case 5: // Delete
				k, e := keyOf(arg)
				ok := e != nil && !e.deleted
				if ok {
					want.LiveBytes -= size(e)
					e.deleted = true
					want.Deletes++
				}
				if got := s.Delete(k); got != ok {
					t.Fatalf("op %d: Delete(%s) = %v, want %v", i/2, k, got, ok)
				}
			case 6: // Unref
				k, e := keyOf(arg)
				if e != nil {
					if e.refs--; e.refs == 0 {
						want.FreedBytes += size(e)
						want.LiveBytes -= size(e)
						delete(model, k)
					}
				}
				s.Unref(k)
			}
			want.Chunks = len(model)
			if got := s.Stats(); got != want {
				t.Fatalf("op %d (%d): Stats diverge:\n store %+v\n model %+v", i/2, op, got, want)
			}
			if s.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model holds %d", i/2, s.Len(), len(model))
			}
		}
	})
}
