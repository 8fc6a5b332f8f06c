package sim

import (
	"slices"

	"dcluster/internal/sinr"
)

// Run-scoped reception memo. Reception is a pure function of the
// transmitter sequence and the listener restriction on a fixed engine, and
// deterministic schedules revisit the same transmitter sets many times
// across passes, constructions and phases: a Close Neighbors Schedule is
// replayed by colour reduction and sparsification long after the exchange
// that built it. The environment therefore memoizes every round outcome,
// of any size, keyed by (interned listener set, transmitter sequence):
// schedule executors intern their listener slice once per pass
// (content-addressed — reused or rebuilt slices are fine) and compute a
// pass's receptions through PassReceptions, which takes a previously
// captured reception sequence when the identical round has run before.

// memoBudget caps the memo per execution, counting one unit per memoized
// transmitter and one per memoized reception.
const memoBudget = 1 << 21

// listenerSetEntry is one interned listener set.
type listenerSetEntry struct {
	id      uint32
	content []int
}

// roundMemoEntry is one memoized round outcome under one interned listener
// set: data holds the round's transmitter sequence (its first ntx values)
// followed by its receptions as (receiver, sender) pairs.
type roundMemoEntry struct {
	key  uint64
	lid  uint32
	ntx  int32
	data []int32
}

type envMemo struct {
	sets    map[uint64][]listenerSetEntry
	nextSet uint32
	entries int

	// Open-addressed round table (linear probing over flat arrays): slot i
	// holds hashes[i] and the index+1 of its entry in rounds (0 = empty).
	// Collisions on the full 64-bit hash chain through the probe sequence;
	// full-content comparison disambiguates genuine hash collisions.
	hashes []uint64
	slots  []int32
	rounds []roundMemoEntry

	// Arena chunk backing the entries' data (see alloc).
	arena []int32
}

// roundSlot returns the probe slot for key: either the slot holding an
// existing entry with that hash-and-content or the empty slot where a new
// entry belongs. The table is kept at most half full, so the probe loop
// terminates.
func (m *envMemo) roundSlot(key uint64, lid uint32, txs []int) int {
	mask := uint64(len(m.hashes) - 1)
	i := key & mask
	for {
		s := m.slots[i]
		if s == 0 {
			return int(i)
		}
		if m.hashes[i] == key {
			en := &m.rounds[s-1]
			if en.lid == lid && int(en.ntx) == len(txs) {
				match := true
				for k, v := range en.data[:en.ntx] {
					if int(v) != txs[k] {
						match = false
						break
					}
				}
				if match {
					return int(i)
				}
			}
		}
		i = (i + 1) & mask
	}
}

// memoChunk sizes the arena chunks backing captured rounds: one allocation
// serves many captures, instead of a small zeroed allocation per memoized
// round.
const memoChunk = 8192

// alloc carves a length-n int32 slice out of the arena.
func (m *envMemo) alloc(n int) []int32 {
	if len(m.arena)+n > cap(m.arena) {
		m.arena = make([]int32, 0, max(memoChunk, n))
	}
	s := m.arena[len(m.arena) : len(m.arena)+n : len(m.arena)+n]
	m.arena = m.arena[:len(m.arena)+n]
	return s
}

// growRounds (re)builds the probe table at twice the capacity.
func (m *envMemo) growRounds() {
	n := 2 * len(m.hashes)
	if n == 0 {
		n = 256
	}
	m.hashes = make([]uint64, n)
	m.slots = make([]int32, n)
	mask := uint64(n - 1)
	for ei := range m.rounds {
		en := &m.rounds[ei]
		i := en.key & mask
		for m.slots[i] != 0 {
			i = (i + 1) & mask
		}
		m.hashes[i] = en.key
		m.slots[i] = int32(ei + 1)
	}
}

// intsHash mixes an int sequence into a lookup key (order-sensitive, as
// both transmitter order and listener order are semantically significant).
func intsHash(seed uint64, xs []int) uint64 {
	h := seed
	for _, v := range xs {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// InternListeners returns a stable identifier for the listener set's
// content (0 for nil = everyone listens). Interning copies the slice, so
// callers may reuse or rebuild theirs freely; identifiers stay valid for
// the lifetime of the environment.
func (e *Env) InternListeners(listeners []int) uint32 {
	if listeners == nil {
		return 0
	}
	if e.memo.sets == nil {
		e.memo.sets = map[uint64][]listenerSetEntry{}
	}
	h := intsHash(uint64(len(listeners))*0x9e3779b97f4a7c15+1469598103934665603, listeners)
	bucket := e.memo.sets[h]
	for _, s := range bucket {
		if slices.Equal(s.content, listeners) {
			return s.id
		}
	}
	e.memo.nextSet++
	id := e.memo.nextSet
	e.memo.sets[h] = append(bucket, listenerSetEntry{id: id, content: append([]int(nil), listeners...)})
	return id
}

// memoLookup returns the captured receptions of the (lid, txs) round as
// (receiver, sender) pairs, and the round's probe key, which memoCapture
// takes back so a round is hashed once.
func (e *Env) memoLookup(txs []int, lid uint32) (recs []int32, key uint64, ok bool) {
	key = intsHash(uint64(lid)*0xc2b2ae3d27d4eb4f+14695981039346656037, txs)
	if e.memo.hashes == nil {
		e.memo.growRounds()
	}
	if s := e.memo.slots[e.memo.roundSlot(key, lid, txs)]; s != 0 {
		en := &e.memo.rounds[s-1]
		return en.data[en.ntx:], key, true
	}
	return nil, key, false
}

// memoCapture stores the receptions of a round memoLookup missed (key is
// the key it returned), copying recs. A round already captured since the
// lookup — the same transmitter set twice in one pass — is left as it is.
// Captures stop once the memo budget is spent.
func (e *Env) memoCapture(txs []int, lid uint32, key uint64, recs []sinr.Reception) {
	slot := e.memo.roundSlot(key, lid, txs)
	if e.memo.slots[slot] != 0 || e.memo.entries+len(txs)+len(recs) > memoBudget {
		return
	}
	en := roundMemoEntry{key: key, lid: lid, ntx: int32(len(txs)), data: e.memo.alloc(len(txs) + 2*len(recs))}
	for k, v := range txs {
		en.data[k] = int32(v)
	}
	for k, r := range recs {
		en.data[len(txs)+2*k] = int32(r.Receiver)
		en.data[len(txs)+2*k+1] = int32(r.Sender)
	}
	e.memo.rounds = append(e.memo.rounds, en)
	e.memo.hashes[slot] = key
	e.memo.slots[slot] = int32(len(e.memo.rounds))
	e.memo.entries += len(txs) + len(recs)
	if 2*len(e.memo.rounds) >= len(e.memo.hashes) {
		e.memo.growRounds()
	}
}

// appendPacked appends receptions stored as (receiver, sender) pairs.
func appendPacked(dst []sinr.Reception, pairs []int32) []sinr.Reception {
	for k := 0; k+1 < len(pairs); k += 2 {
		dst = append(dst, sinr.Reception{Receiver: int(pairs[k]), Sender: int(pairs[k+1])})
	}
	return dst
}
