// Package castore is a content-addressed chunk store: blocks are keyed by
// the SHA-256 of their contents, deduplicated on deposit, and reference
// counted so callers can retire whole groups of addresses (one checkpoint
// manifest's worth) without tracking sharing themselves.
//
// Because the address is the hash, every read is an integrity check for
// free: Get re-hashes the stored bytes and refuses to return a block whose
// contents no longer match its address. The checkpoint layer
// (internal/dsm) leans on this to detect tampered or lost recovery state
// instead of restoring it blindly; the Tamper and Delete fault hooks exist
// so tests can inject exactly those failures deterministically.
package castore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"lrcrace/internal/mem"
)

// Addr is a chunk address: the SHA-256 of the chunk's contents.
type Addr [sha256.Size]byte

// Sum returns the address of b without storing it.
func Sum(b []byte) Addr { return sha256.Sum256(b) }

// String renders the address as abbreviated hex for logs.
func (a Addr) String() string { return fmt.Sprintf("%x", a[:8]) }

// Errors returned by Get. Both mean the chunk's closure is unusable;
// callers distinguish them only for diagnostics.
var (
	// ErrMissing: no chunk is stored at the address.
	ErrMissing = errors.New("castore: chunk missing")
	// ErrCorrupt: the stored bytes no longer hash to the address.
	ErrCorrupt = errors.New("castore: chunk corrupt")
)

type chunk struct {
	data []byte
	refs int
}

// Stats is a point-in-time accounting of the store. The cumulative fields
// (Puts onward) are monotone over the store's lifetime; Chunks and
// LiveBytes describe what is resident right now.
type Stats struct {
	Chunks    int   // chunks currently resident
	LiveBytes int64 // bytes currently resident

	Puts         int64 // total Put and PutAt calls
	Hashed       int64 // of those, deposits that hashed b: every Put, and each PutAt whose hints failed
	Hits         int64 // Puts deduplicated against a resident chunk
	StoredBytes  int64 // bytes of chunks that were new at deposit time
	LogicalBytes int64 // bytes across all Puts, as if nothing deduped
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
	chunks map[Addr]*chunk
	stats  Stats
}

// New returns an empty store.
func New() *Store {
	return &Store{chunks: make(map[Addr]*chunk)}
}

// Put deposits b, returning its address and whether the chunk was new.
// The chunk's refcount rises by one either way; callers own exactly one
// reference per Put and retire it with Unref. A resident chunk whose bytes
// were tampered with (or deleted out from under its refcount) is healed:
// the incoming copy hashes to the address by construction, so it is
// authoritative. b is copied only when the store keeps it (new chunk or
// heal); a clean dedup hit allocates nothing.
func (s *Store) Put(b []byte) (Addr, bool) {
	a := Sum(b)
	s.stats.Puts++
	s.stats.Hashed++
	s.stats.LogicalBytes += int64(len(b))
	c := s.chunks[a]
	switch {
	case c == nil:
		c = &chunk{data: pooledCopy(b)}
		s.chunks[a] = c
		s.stats.StoredBytes += int64(len(b))
		s.stats.LiveBytes += int64(len(b))
	case c.data == nil || !bytes.Equal(c.data, b):
		s.stats.Hits++
		s.stats.Heals++
		s.stats.LiveBytes += int64(len(b) - len(c.data))
		mem.PutFrame(c.data)
		c.data = pooledCopy(b)
	default:
		s.stats.Hits++
	}
	c.refs++
	return a, c.refs == 1
}

// pooledCopy returns a copy of b in a buffer from the frame pool, which it
// does not zero before overwriting. Never nil: as a chunk's data, nil marks
// a Delete-faulted chunk.
func pooledCopy(b []byte) []byte {
	c := mem.GetFrame(len(b))
	copy(c, b)
	return c
}

// PutAt is Put for a caller that remembers where these bytes may already
// live: own, the address it last deposited their predecessor under (a
// checkpointer re-depositing a page that usually has not changed since the
// previous epoch), and shared, the address anyone last deposited under for
// the same purpose (another process's copy of the same page, deposited at
// the same barrier). Both are hints that are verified, never trusted: only
// if a chunk is resident at a hint and its bytes equal b is the deposit
// accounted as the dedup hit Put would have found (same Stats bar Hashed,
// one more reference, same result), without hashing b. Anything else —
// nothing at either hint, a Deleted or Tampered chunk, different contents —
// is an ordinary Put, so damaged chunks are healed and counted exactly as
// without the hints.
func (s *Store) PutAt(own, shared Addr, b []byte) (Addr, bool) {
	hints := [2]Addr{own, shared}
	n := len(hints)
	if shared == own {
		n = 1
	}
	for _, hint := range hints[:n] {
		if c := s.chunks[hint]; c != nil && c.data != nil && bytes.Equal(c.data, b) {
			s.stats.Puts++
			s.stats.LogicalBytes += int64(len(b))
			s.stats.Hits++
			c.refs++
			return hint, false
		}
	}
	return s.Put(b)
}

// Get returns a copy of the chunk at a, verifying its contents against the
// address. The copy is the caller's, in a buffer from mem.GetFrame, so a
// caller done with it may hand it to mem.PutFrame. It returns ErrMissing if
// nothing is stored there and ErrCorrupt if the stored bytes no longer hash
// to a.
func (s *Store) Get(a Addr) ([]byte, error) {
	c := s.chunks[a]
	if c == nil || c.data == nil {
		return nil, fmt.Errorf("%w: %s", ErrMissing, a)
	}
	if Sum(c.data) != a {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, a)
	}
	return pooledCopy(c.data), nil
}

// Contains reports whether a chunk is resident at a (tampered or not).
func (s *Store) Contains(a Addr) bool {
	return s.chunks[a] != nil
}

// Unref drops one reference from the chunk at a, freeing it when the count
// reaches zero. Unref of an absent address is a no-op (the chunk may have
// been deleted by fault injection).
func (s *Store) Unref(a Addr) {
	c := s.chunks[a]
	if c == nil {
		return
	}
	c.refs--
	if c.refs <= 0 {
		s.stats.FreedBytes += int64(len(c.data))
		s.stats.LiveBytes -= int64(len(c.data))
		mem.PutFrame(c.data)
		delete(s.chunks, a)
	}
}

// Len returns the number of resident chunks.
func (s *Store) Len() int {
	return len(s.chunks)
}

// Stats returns a copy of the store's accounting.
func (s *Store) Stats() Stats {
	return s.stats
}

// Addrs returns every resident address in lexicographic order — the stable
// enumeration deterministic fault injection indexes into.
func (s *Store) Addrs() []Addr {
	out := make([]Addr, 0, len(s.chunks))
	for a := range s.chunks {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// Tamper flips a bit in the stored copy of the chunk at a, so a later Get
// fails with ErrCorrupt. It reports whether a chunk was there to corrupt.
// Fault-injection hook; refcounts are untouched.
func (s *Store) Tamper(a Addr) bool {
	c := s.chunks[a]
	if c == nil {
		return false
	}
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

// Delete drops the stored bytes of the chunk at a while keeping its
// refcount bookkeeping, so a later Get fails with ErrMissing and a later
// Put heals it. It reports whether a chunk was there to delete.
// Fault-injection hook.
func (s *Store) Delete(a Addr) bool {
	c := s.chunks[a]
	if c == nil || c.data == nil {
		return false
	}
	s.stats.Deletes++
	s.stats.LiveBytes -= int64(len(c.data))
	mem.PutFrame(c.data)
	c.data = nil
	return true
}
