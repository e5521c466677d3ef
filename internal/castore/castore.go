// Package castore is a content-addressed chunk store: blocks are named by a
// fingerprint of their contents, deduplicated on deposit, and reference
// counted so callers can retire whole groups of keys (one checkpoint
// manifest's worth) without tracking sharing themselves.
//
// A chunk's Key is its CRC-32C, its length, and an index that tells apart
// the rare different chunks sharing those two. The fingerprint is a name,
// not a proof: every dedup hit compares the bytes, so two different chunks
// never share an entry. Every read is an integrity check: Get recomputes
// the fingerprint of the stored bytes and refuses a block that no longer
// matches its key. That catches accidental damage — every single-bit flip,
// every burst of up to 32 bits, any length change, any deletion — but not
// deliberate forgery, which can choose bytes with a given CRC. The
// checkpoint layer (internal/dsm) leans on this to detect tampered or lost
// recovery state instead of restoring it blindly; the Tamper and Delete
// fault hooks exist so tests can inject exactly those failures
// deterministically.
package castore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"

	"lrcrace/internal/mem"
)

// Key names a chunk: the CRC-32C of its contents in the high 32 bits, its
// length in the next 24, and in the low 8 its index among the resident
// chunks that share the first two (0 for all but a collision's later
// arrivals).
type Key uint64

// MaxChunk is the longest chunk a Key can name.
const MaxChunk = 1<<24 - 1

const (
	indexBits = 8
	indexMask = 1<<indexBits - 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fingerprint returns the key of b at chain index 0.
func fingerprint(b []byte) Key {
	return Key(crc32.Checksum(b, castagnoli))<<32 | Key(len(b))<<indexBits
}

// String renders the key as hex for logs.
func (k Key) String() string { return fmt.Sprintf("%016x", uint64(k)) }

// Errors returned by Get. Both mean the chunk's closure is unusable;
// callers distinguish them only for diagnostics.
var (
	// ErrMissing: no chunk is stored under the key.
	ErrMissing = errors.New("castore: chunk missing")
	// ErrCorrupt: the stored bytes no longer match their key or digest.
	ErrCorrupt = errors.New("castore: chunk corrupt")
)

type chunk struct {
	data []byte
	refs int
	key  Key
	// lost is set by the fault hook that damaged the chunk (Tamper,
	// Delete): the SHA-256 of the contents it destroyed, so that only a
	// deposit of those very bytes heals it. nil → intact.
	lost *[sha256.Size]byte
	next *chunk // the next resident chunk with the same fingerprint
}

// Stats is a point-in-time accounting of the store. The cumulative fields
// (Puts onward) are monotone over the store's lifetime; Chunks and
// LiveBytes describe what is resident right now.
type Stats struct {
	Chunks    int   // chunks currently resident
	LiveBytes int64 // bytes currently resident

	Puts         int64 // total Put and Ref calls that took a reference
	Hashed       int64 // of those, deposits that fingerprinted b: every Put
	Hits         int64 // deposits deduplicated against a resident chunk, Refs included
	StoredBytes  int64 // bytes of chunks that were new at deposit time
	LogicalBytes int64 // bytes across all deposits, as if nothing deduped
	FreedBytes   int64 // bytes released by Unref reaching zero
	Heals        int64 // Puts that replaced tampered or deleted contents
	Tampers      int64 // Tamper fault injections applied
	Deletes      int64 // Delete fault injections applied
}

// Store is a refcounted content-addressed chunk store. It is not safe for
// concurrent use: a checkpoint store's chunks are written on its run's one
// thread and read after it, so it takes no lock. Chunk contents live in
// buffers from the page-frame pool
// (mem.GetFrame); no buffer the store holds ever leaves it, so a chunk's
// buffer goes back to the pool when an Unref frees the chunk, a heal
// replaces its contents or a Delete fault drops them.
type Store struct {
	chains map[Key]*chunk // by fingerprint: the resident chunks sharing it
	n      int            // resident chunks
	stats  Stats
}

// New returns an empty store.
func New() *Store {
	return &Store{chains: make(map[Key]*chunk)}
}

// lookup returns the resident chunk named k, or nil.
func (s *Store) lookup(k Key) *chunk { return find(s.chains[k&^indexMask], k) }

// find returns the chunk named k in the chain from c, or nil.
func find(c *chunk, k Key) *chunk {
	for c != nil && c.key != k {
		c = c.next
	}
	return c
}

// Put deposits b, returning its key and whether the chunk was new. The
// chunk's refcount rises by one either way; callers own exactly one
// reference per Put and retire it with Unref. A resident chunk with equal
// bytes is a hit; a chunk a fault hook damaged is healed by a deposit of
// the contents it lost, which keeps its key. Otherwise b is new, under the
// lowest chain index its fingerprint has free. b is copied only when the
// store keeps it (new chunk or heal); a clean dedup hit allocates nothing.
// Put panics if b is longer than MaxChunk, or if 256 different chunks of
// one fingerprint are resident, which only forged contents can bring
// about.
func (s *Store) Put(b []byte) (Key, bool) {
	if len(b) > MaxChunk {
		panic(fmt.Sprintf("castore: chunk of %d bytes exceeds MaxChunk", len(b)))
	}
	fp := fingerprint(b)
	s.stats.Puts++
	s.stats.Hashed++
	s.stats.LogicalBytes += int64(len(b))
	var digest *[sha256.Size]byte
	head := s.chains[fp]
	for c := head; c != nil; c = c.next {
		if c.lost == nil {
			if bytes.Equal(c.data, b) {
				s.stats.Hits++
				c.refs++
				return c.key, false
			}
			continue
		}
		if digest == nil {
			d := sha256.Sum256(b)
			digest = &d
		}
		if *digest == *c.lost {
			s.stats.Hits++
			s.stats.Heals++
			s.stats.LiveBytes += int64(len(b) - len(c.data))
			mem.PutFrame(c.data)
			c.data = pooledCopy(b)
			c.lost = nil
			c.refs++
			return c.key, false
		}
	}
	k := fp
	for find(head, k) != nil {
		if k&indexMask == indexMask {
			panic(fmt.Sprintf("castore: %d different chunks share fingerprint %s", indexMask+1, fp))
		}
		k++
	}
	c := &chunk{data: pooledCopy(b), refs: 1, key: k, next: head}
	s.chains[fp] = c
	s.n++
	s.stats.StoredBytes += int64(len(b))
	s.stats.LiveBytes += int64(len(b))
	return k, true
}

// pooledCopy returns a copy of b in a buffer from the frame pool, which it
// does not zero before overwriting. Never nil: as a chunk's data, nil marks
// a Delete-faulted chunk.
func pooledCopy(b []byte) []byte {
	c := mem.GetFrame(len(b))
	copy(c, b)
	return c
}

// Ref takes one more reference to the chunk named k, for a caller that
// knows its bytes equal that chunk's: a checkpointer re-depositing a page
// nothing has written since it was deposited under k. It is accounted as
// the dedup hit Put of those bytes would be (same Stats bar Hashed, one
// more reference) and never reads them. Ref refuses, reporting false and
// changing nothing, when no chunk is named k or a fault hook damaged it;
// the caller then Puts its bytes, so damaged chunks are healed and counted
// as without Ref.
func (s *Store) Ref(k Key) bool {
	c := s.lookup(k)
	if c == nil || c.lost != nil {
		return false
	}
	s.stats.Puts++
	s.stats.Hits++
	s.stats.LogicalBytes += int64(len(c.data))
	c.refs++
	return true
}

// Get returns a copy of the chunk named k, verifying its contents against
// the key. The copy is the caller's, in a buffer from mem.GetFrame, so a
// caller done with it may hand it to mem.PutFrame. It returns ErrMissing if
// nothing is stored under k and ErrCorrupt if the stored bytes' CRC-32C or
// length no longer match it.
func (s *Store) Get(k Key) ([]byte, error) {
	c := s.lookup(k)
	if c == nil || c.data == nil {
		return nil, fmt.Errorf("%w: %s", ErrMissing, k)
	}
	if len(c.data) > MaxChunk || fingerprint(c.data) != k&^indexMask {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, k)
	}
	return pooledCopy(c.data), nil
}

// Contains reports whether a chunk is resident under k (damaged or not).
func (s *Store) Contains(k Key) bool {
	return s.lookup(k) != nil
}

// Unref drops one reference from the chunk named k, freeing it when the
// count reaches zero. Unref of an absent key is a no-op.
func (s *Store) Unref(k Key) {
	fp := k &^ indexMask
	var prev *chunk
	c := s.chains[fp]
	for c != nil && c.key != k {
		prev, c = c, c.next
	}
	if c == nil {
		return
	}
	c.refs--
	if c.refs > 0 {
		return
	}
	s.stats.FreedBytes += int64(len(c.data))
	s.stats.LiveBytes -= int64(len(c.data))
	mem.PutFrame(c.data)
	switch {
	case prev != nil:
		prev.next = c.next
	case c.next != nil:
		s.chains[fp] = c.next
	default:
		delete(s.chains, fp)
	}
	s.n--
}

// Len returns the number of resident chunks.
func (s *Store) Len() int {
	return s.n
}

// Stats returns a copy of the store's accounting.
func (s *Store) Stats() Stats {
	st := s.stats
	st.Chunks = s.n
	return st
}

// damage marks c as damaged by a fault hook, remembering what it held.
func damage(c *chunk) {
	if c.lost == nil {
		d := sha256.Sum256(c.data)
		c.lost = &d
	}
}

// Tamper flips a bit in the stored copy of the intact chunk named k, so a
// later Get fails with ErrCorrupt. It reports whether an intact chunk was
// there to corrupt. Fault-injection hook; refcounts are untouched.
func (s *Store) Tamper(k Key) bool {
	c := s.lookup(k)
	if c == nil || c.lost != nil {
		return false
	}
	damage(c)
	s.stats.Tampers++
	if len(c.data) == 0 {
		// An empty chunk has no bit to flip; growing it corrupts equally.
		c.data = []byte{0xff}
		s.stats.LiveBytes++
		return true
	}
	c.data[len(c.data)/2] ^= 0x80
	return true
}

// Delete drops the stored bytes of the chunk named k while keeping its
// refcount bookkeeping, so a later Get fails with ErrMissing and a later
// Put of the lost contents heals it. It reports whether a chunk's bytes
// were there to delete. Fault-injection hook.
func (s *Store) Delete(k Key) bool {
	c := s.lookup(k)
	if c == nil || c.data == nil {
		return false
	}
	damage(c)
	s.stats.Deletes++
	s.stats.LiveBytes -= int64(len(c.data))
	mem.PutFrame(c.data)
	c.data = nil
	return true
}
