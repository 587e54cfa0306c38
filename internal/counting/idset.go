package counting

import (
	"math/bits"

	"byzcount/internal/sim"
)

// idSet is a set of node IDs: an open-addressing table of power-of-two
// size with linear probing, kept at most half full. Slot value 0 marks
// an empty slot, so ID 0 is held in a flag instead. The zero value is an
// empty set that allocates on its first add; reset empties it and keeps
// the table, so a per-phase blacklist stops allocating once it has grown
// to its high-water mark.
type idSet struct {
	slots   []sim.NodeID
	count   int32 // non-zero IDs held
	shift   uint8 // 64 - log2(len(slots)): slot = hash >> shift
	hasZero bool
}

// minIDSlots is the table size of the first add.
const minIDSlots = 8

// has reports whether id is in the set.
func (s *idSet) has(id sim.NodeID) bool {
	if id == 0 {
		return s.hasZero
	}
	return s.count > 0 && s.slots[s.find(id)] == id
}

// add inserts id; adding an ID already present changes nothing.
func (s *idSet) add(id sim.NodeID) {
	if id == 0 {
		s.hasZero = true
		return
	}
	if len(s.slots) == 0 {
		s.rehash(minIDSlots)
	}
	i := s.find(id)
	if s.slots[i] == id {
		return
	}
	if 2*(int(s.count)+1) > len(s.slots) {
		s.rehash(2 * len(s.slots))
		i = s.find(id)
	}
	s.slots[i] = id
	s.count++
}

// reset empties the set, keeping its table.
func (s *idSet) reset() {
	if s.count > 0 {
		clear(s.slots)
		s.count = 0
	}
	s.hasZero = false
}

// find returns the slot holding id, or the empty slot that ends its
// probe sequence. The table is never full, so the probe terminates.
func (s *idSet) find(id sim.NodeID) int {
	mask := len(s.slots) - 1
	// Fibonacci hashing: the product's top bits depend on every bit of
	// the ID, so IDs that differ only in their high bits still spread.
	i := int((uint64(id) * 0x9e3779b97f4a7c15) >> s.shift)
	for s.slots[i] != id && s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// rehash moves the set into a fresh table of size slots (a power of two).
func (s *idSet) rehash(size int) {
	old := s.slots
	s.slots = make([]sim.NodeID, size)
	s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, id := range old {
		if id != 0 {
			s.slots[s.find(id)] = id
		}
	}
}
