package counting

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIterationRounds(t *testing.T) {
	if IterationRounds(3) != 11 {
		t.Errorf("IterationRounds(3) = %d, want 11", IterationRounds(3))
	}
}

func TestIterationsFormula(t *testing.T) {
	s := Schedule{StartPhase: 2, Gamma: 0.5}
	// floor(e^(0.5*4)) + 1 = floor(7.389) + 1 = 8
	if got := s.Iterations(4); got != 8 {
		t.Errorf("Iterations(4) = %d, want 8", got)
	}
}

func TestIterationCap(t *testing.T) {
	s := Schedule{StartPhase: 2, Gamma: 0.2, IterationCap: 5}
	if got := s.Iterations(20); got != 5 {
		t.Errorf("capped Iterations = %d, want 5", got)
	}
}

func TestLocateFirstRounds(t *testing.T) {
	s := Schedule{StartPhase: 2, Gamma: 0.5}
	loc := s.Locate(0)
	if loc.Phase != 2 || loc.Iteration != 1 || loc.Offset != 0 {
		t.Errorf("Locate(0) = %+v", loc)
	}
	// Phase 2 iterations: floor(e^1)+1 = 3; iteration length 9.
	loc = s.Locate(8)
	if loc.Phase != 2 || loc.Iteration != 1 || loc.Offset != 8 {
		t.Errorf("Locate(8) = %+v", loc)
	}
	loc = s.Locate(9)
	if loc.Phase != 2 || loc.Iteration != 2 || loc.Offset != 0 {
		t.Errorf("Locate(9) = %+v", loc)
	}
	loc = s.Locate(27) // 3 iterations x 9 rounds = phase 2 done
	if loc.Phase != 3 || loc.Iteration != 1 || loc.Offset != 0 {
		t.Errorf("Locate(27) = %+v", loc)
	}
}

func TestLocateNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative round did not panic")
		}
	}()
	Schedule{StartPhase: 2, Gamma: 0.5}.Locate(-1)
}

func TestLocateConsistentWithPhaseRounds(t *testing.T) {
	s := Schedule{StartPhase: 2, Gamma: 0.45}
	f := func(roundRaw uint16) bool {
		round := int(roundRaw)
		loc := s.Locate(round)
		// Reconstruct the round from the coordinates.
		base := 0
		for i := s.StartPhase; i < loc.Phase; i++ {
			base += s.PhaseRounds(i)
		}
		reconstructed := base + (loc.Iteration-1)*IterationRounds(loc.Phase) + loc.Offset
		return reconstructed == round &&
			loc.Iteration >= 1 && loc.Iteration <= s.Iterations(loc.Phase) &&
			loc.Offset >= 0 && loc.Offset < IterationRounds(loc.Phase)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLocatorMatchesLocate: one cache walked through rounds in any
// order — forward inside a phase, across phases, and back — returns
// what a fresh walk from StartPhase does.
func TestLocatorMatchesLocate(t *testing.T) {
	s := Schedule{StartPhase: 2, Gamma: 0.45}
	rng := rand.New(rand.NewSource(3))
	var l Locator
	for k := 0; k < 3000; k++ {
		round := k
		if k%3 == 0 {
			round = rng.Intn(5000)
		}
		if got, want := l.Locate(&s, round), s.Locate(round); got != want {
			t.Fatalf("step %d: cached Locate(%d) = %+v, fresh %+v", k, round, got, want)
		}
	}
}

func TestRoundsThroughPhase(t *testing.T) {
	s := Schedule{StartPhase: 2, Gamma: 0.5}
	want := s.PhaseRounds(2) + s.PhaseRounds(3)
	if got := s.RoundsThroughPhase(3); got != want {
		t.Errorf("RoundsThroughPhase(3) = %d, want %d", got, want)
	}
	// First round of phase 4 must be exactly that total.
	if loc := s.Locate(want); loc.Phase != 4 || loc.Offset != 0 {
		t.Errorf("round %d located at %+v", want, loc)
	}
}

// TestRoundsThroughPhaseSaturates: through phase 84 (-max-phase 83)
// the default schedule's phase lengths sum past math.MaxInt, and from
// phase 98 Iterations converts a float past 2^63 to int; the budget
// wrapped, and `run -max-phase 83` failed with "sim: negative
// maxRounds". Every budget must be positive and non-decreasing, the
// exact sum wherever that fits and math.MaxInt past it, and Locate
// must place the last round.
func TestRoundsThroughPhaseSaturates(t *testing.T) {
	s := DefaultCongestParams(8).Schedule
	exact, maxInt := new(big.Int), big.NewInt(math.MaxInt)
	prev := 0
	for last := s.StartPhase; last <= 10_000; last++ {
		if exact.Cmp(maxInt) <= 0 {
			it := int64(math.Floor(math.Exp((1-s.Gamma)*float64(last)))) + 1
			exact.Add(exact, new(big.Int).Mul(big.NewInt(it), big.NewInt(int64(IterationRounds(last)))))
		}
		want := math.MaxInt
		if exact.Cmp(maxInt) <= 0 {
			want = int(exact.Int64())
		}
		got := s.RoundsThroughPhase(last)
		if got != want || got < prev {
			t.Fatalf("RoundsThroughPhase(%d) = %d after %d, want %d", last, got, prev, want)
		}
		prev = got
	}
	if prev != math.MaxInt {
		t.Fatalf("RoundsThroughPhase(10000) = %d, want math.MaxInt", prev)
	}
	var l Locator
	if loc := l.Locate(&s, math.MaxInt-1); loc.Phase < 84 || loc.Phase > 98 || loc.Offset < 0 || loc.Iteration < 1 {
		t.Errorf("round math.MaxInt-1 located at %+v", loc)
	}
}

func TestBlacklistSuffix(t *testing.T) {
	// Large i: the floor formula dominates.
	if got := BlacklistSuffix(20, 0.8); got != 4 {
		t.Errorf("BlacklistSuffix(20, 0.8) = %d, want 4", got)
	}
	// Small i: the floor would be 0; the trusted suffix is clamped to 1.
	if got := BlacklistSuffix(2, 0.8); got != 1 {
		t.Errorf("BlacklistSuffix(2, 0.8) = %d, want 1", got)
	}
}

func TestDeriveEpsilon(t *testing.T) {
	eps := DeriveEpsilon(0.5, 0.1, 8)
	want := 1 - 0.9*0.5/math.Log(8)
	if math.Abs(eps-want) > 1e-12 {
		t.Errorf("DeriveEpsilon = %g, want %g", eps, want)
	}
	if eps <= 0 || eps >= 1 {
		t.Errorf("epsilon %g outside (0,1)", eps)
	}
}

func TestDeriveEpsilonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("d=1 did not panic")
		}
	}()
	DeriveEpsilon(0.5, 0.1, 1)
}

func TestActivationProbability(t *testing.T) {
	// c1*i/d^i: 4*2/8^2 = 0.125
	if got := ActivationProbability(4, 2, 8); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("ActivationProbability = %g", got)
	}
	// Degenerate inputs.
	if ActivationProbability(4, 0, 8) != 0 {
		t.Error("i=0 should give 0")
	}
	if ActivationProbability(4, 2, 1) != 0 {
		t.Error("d=1 should give 0")
	}
	// Clamped to 1.
	if got := ActivationProbability(100, 1, 2); got != 1 {
		t.Errorf("clamp failed: %g", got)
	}
	// Monotone decreasing in i eventually.
	if ActivationProbability(4, 10, 8) >= ActivationProbability(4, 3, 8) {
		t.Error("activation probability should decay with phase")
	}
}
