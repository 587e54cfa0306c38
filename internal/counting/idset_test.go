package counting

import (
	"testing"

	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// TestIDSetMatchesMap runs seeded random add/has/reset programs against
// the map the blacklist used to be. IDs come from a small pool so adds
// repeat; the pool holds ID 0 and IDs that agree in their low 32 bits,
// and the long programs grow the table through several doublings.
func TestIDSetMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		pool := []sim.NodeID{0, 1, 1 << 32, 2<<32 | 1, 0xffffffff00000001}
		for range 8 + rng.Intn(300) {
			id := sim.NodeID(rng.Uint64())
			if rng.Intn(4) == 0 {
				id = id&0xffffffff00000000 | pool[rng.Intn(len(pool))]&0xffffffff
			}
			pool = append(pool, id)
		}
		var s idSet
		ref := make(map[sim.NodeID]struct{})
		peak := 0
		for step := range 2000 {
			id := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(100); {
			case op < 55:
				s.add(id)
				ref[id] = struct{}{}
			case op < 99:
				_, want := ref[id]
				if got := s.has(id); got != want {
					t.Fatalf("seed %d step %d: has(%#x) = %v, map says %v", seed, step, id, got, want)
				}
			default:
				s.reset()
				clear(ref)
			}
			peak = max(peak, len(ref))
			if 2*int(s.count) > len(s.slots) {
				t.Fatalf("seed %d step %d: %d IDs in %d slots", seed, step, s.count, len(s.slots))
			}
		}
		for _, id := range pool {
			if _, want := ref[id]; s.has(id) != want {
				t.Fatalf("seed %d: final has(%#x) = %v, map says %v", seed, id, !want, want)
			}
		}
		if seed == 1 && peak < 8*minIDSlots {
			t.Fatalf("peak set size %d does not exercise several doublings", peak)
		}
	}
}

// TestIDSetResetKeepsTable: reset empties the set but keeps the grown
// table, so refilling it to the same size allocates nothing.
func TestIDSetResetKeepsTable(t *testing.T) {
	var s idSet
	fill := func() {
		for id := sim.NodeID(0); id < 100; id++ {
			s.add(id * 0x1_0000_0001)
		}
	}
	fill()
	size := len(s.slots)
	if allocs := testing.AllocsPerRun(10, func() { s.reset(); fill() }); allocs != 0 {
		t.Errorf("reset+refill allocated %v times", allocs)
	}
	if len(s.slots) != size || s.count != 99 || !s.hasZero {
		t.Errorf("after refill: %d slots (was %d), count %d, hasZero %v", len(s.slots), size, s.count, s.hasZero)
	}
	s.reset()
	if s.has(0) || s.has(0x1_0000_0001) || s.count != 0 {
		t.Error("reset left IDs behind")
	}
}
