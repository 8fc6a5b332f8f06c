package sim

import (
	"slices"

	"dcluster/internal/sinr"
)

// Run-scoped reception memo. Reception is a pure function of the
// transmitter sequence and the listener restriction on a fixed engine, and
// deterministic schedules revisit the same small transmitter sets hundreds
// of times across passes, constructions and phases. The environment
// therefore memoizes round outcomes keyed by (interned listener set,
// transmitter sequence): schedule executors intern their listener slice
// once per pass (content-addressed — reused or rebuilt slices are fine) and
// compute a pass's receptions through PassReceptions, which takes a
// previously captured reception sequence when the identical round has run
// before.

// memoTxCap bounds the transmitter-set size eligible for the round memo;
// larger rounds are rare and dominated by genuinely new physics.
const memoTxCap = 48

// memoBudget caps the total memoized ints (transmitters + receptions) per
// execution.
const memoBudget = 1 << 21

// listenerSetEntry is one interned listener set.
type listenerSetEntry struct {
	id      uint32
	content []int
}

// roundMemoEntry is one memoized round outcome: the exact transmitter
// sequence under one interned listener set, and its receptions.
type roundMemoEntry struct {
	key  uint64
	lid  uint32
	txs  []int32
	recs []sinr.Reception
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

	// Arena chunks backing the entries' txs and recs (see allocTxs).
	txArena  []int32
	recArena []sinr.Reception

	// solo[lid][v] memoizes the dominant |txs| = 1 rounds with two array
	// loads instead of a map probe: nil marks "not captured", a non-nil
	// empty slice a captured empty outcome.
	solo [][][]sinr.Reception
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
			if en.lid == lid && len(en.txs) == len(txs) {
				match := true
				for k, v := range en.txs {
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

// memoChunk sizes the arena chunks backing captured transmitter and
// reception sequences: one allocation serves many captures, instead of two
// small zeroed allocations per memoized round.
const memoChunk = 4096

// allocTxs carves a length-n int32 slice out of the transmitter arena.
func (m *envMemo) allocTxs(n int) []int32 {
	if len(m.txArena)+n > cap(m.txArena) {
		m.txArena = make([]int32, 0, max(memoChunk, n))
	}
	s := m.txArena[len(m.txArena) : len(m.txArena)+n]
	m.txArena = m.txArena[:len(m.txArena)+n]
	return s
}

// allocRecs carves a zero-length, capacity-n slice out of the reception
// arena.
func (m *envMemo) allocRecs(n int) []sinr.Reception {
	if len(m.recArena)+n > cap(m.recArena) {
		m.recArena = make([]sinr.Reception, 0, max(memoChunk, n))
	}
	s := m.recArena[len(m.recArena) : len(m.recArena) : len(m.recArena)+n]
	m.recArena = m.recArena[:len(m.recArena)+n]
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

// memoLookup returns the captured receptions of the (lid, txs) round, and
// the round's probe key, which memoCapture takes back so a round is hashed
// once. Rounds the memo does not hold (silent, or more than memoTxCap
// transmitters) always miss.
func (e *Env) memoLookup(txs []int, lid uint32) (recs []sinr.Reception, key uint64, ok bool) {
	key = intsHash(uint64(lid)*0xc2b2ae3d27d4eb4f+14695981039346656037, txs)
	if len(txs) == 0 || len(txs) > memoTxCap {
		return nil, key, false
	}
	if len(txs) == 1 {
		if tab := e.soloTable(lid); tab != nil {
			recs = tab[txs[0]]
			return recs, key, recs != nil
		}
	}
	if e.memo.hashes == nil {
		e.memo.growRounds()
	}
	if s := e.memo.slots[e.memo.roundSlot(key, lid, txs)]; s != 0 {
		return e.memo.rounds[s-1].recs, key, true
	}
	return nil, key, false
}

// memoCapture stores the receptions of a round memoLookup missed (key is
// the key it returned), copying recs. A round already captured since the
// lookup — the same transmitter set twice in one pass — is left as it is.
// Captures stop once the memo budget is spent.
func (e *Env) memoCapture(txs []int, lid uint32, key uint64, recs []sinr.Reception) {
	if len(txs) == 0 || len(txs) > memoTxCap {
		return
	}
	if len(txs) == 1 {
		if tab := e.soloTable(lid); tab != nil {
			if v := txs[0]; tab[v] == nil {
				tab[v] = append(make([]sinr.Reception, 0, len(recs)), recs...)
				e.memo.entries += 1 + len(recs)
			}
			return
		}
	}
	slot := e.memo.roundSlot(key, lid, txs)
	if e.memo.slots[slot] != 0 || e.memo.entries+len(txs)+len(recs) > memoBudget {
		return
	}
	en := roundMemoEntry{key: key, lid: lid, txs: e.memo.allocTxs(len(txs)), recs: e.memo.allocRecs(len(recs))}
	for k, v := range txs {
		en.txs[k] = int32(v)
	}
	en.recs = append(en.recs, recs...)
	e.memo.rounds = append(e.memo.rounds, en)
	e.memo.hashes[slot] = key
	e.memo.slots[slot] = int32(len(e.memo.rounds))
	e.memo.entries += len(txs) + len(recs)
	if 2*len(e.memo.rounds) >= len(e.memo.hashes) {
		e.memo.growRounds()
	}
}

// soloTable returns the per-sender solo-round table of one listener set,
// allocating it on first use while the budget lasts (nil = over budget;
// callers fall back to the keyed memo).
func (e *Env) soloTable(lid uint32) [][]sinr.Reception {
	for len(e.memo.solo) <= int(lid) {
		e.memo.solo = append(e.memo.solo, nil)
	}
	tab := e.memo.solo[lid]
	if tab == nil {
		n := e.F.N()
		if e.memo.entries+n > memoBudget {
			return nil
		}
		tab = make([][]sinr.Reception, n)
		e.memo.solo[lid] = tab
		e.memo.entries += n
	}
	return tab
}
