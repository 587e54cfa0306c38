package counting

import "math"

// Schedule maps the global synchronized round counter to Algorithm 2's
// (phase, iteration, offset) coordinates. Because the network is
// synchronous and all nodes start at round 0 (Section 2), every node can
// derive the current coordinates locally without communication.
//
// Phase i consists of Iterations(i) iterations of 2i+5 rounds each: i+2
// rounds of beacon transmission followed by i+3 rounds of continue
// transmission (Algorithm 2, line 3).
type Schedule struct {
	// StartPhase is the constant c of line 1; phases run c, c+1, ...
	StartPhase int
	// Gamma is the Byzantine-tolerance exponent: the number of iterations
	// of phase i is floor(e^((1-Gamma)*i)) + 1.
	Gamma float64
	// IterationCap, when positive, truncates the per-phase iteration count
	// (an engineering safety knob; 0 means the paper's exact count).
	IterationCap int
}

// Loc identifies a position within the phase structure.
type Loc struct {
	Phase     int // current phase i
	Iteration int // iteration j within the phase, 1-based
	Offset    int // round offset within the iteration, 0 .. 2*Phase+4
}

// IterationRounds returns the length in rounds of one iteration of
// phase i.
func IterationRounds(i int) int { return 2*i + 5 }

// Iterations returns the number of iterations in phase i:
// floor(e^((1-gamma)*i)) + 1, per line 3 of Algorithm 2, saturated at
// math.MaxInt (from phase 98 at gamma 0.55 the exponential passes it,
// and Go leaves the conversion of such a float to int undefined).
func (s Schedule) Iterations(i int) int {
	n := math.MaxInt
	if f := math.Floor(math.Exp((1 - s.Gamma) * float64(i))); f < math.MaxInt {
		n = int(f) + 1
	}
	if s.IterationCap > 0 && n > s.IterationCap {
		n = s.IterationCap
	}
	return n
}

// PhaseRounds returns the total number of rounds in phase i, saturated
// at math.MaxInt.
func (s Schedule) PhaseRounds(i int) int {
	it, r := s.Iterations(i), IterationRounds(i)
	if it > math.MaxInt/r {
		return math.MaxInt
	}
	return it * r
}

// Locate converts a global round number to phase coordinates, walking
// the phases from StartPhase.
func (s Schedule) Locate(round int) Loc {
	var l Locator
	return l.Locate(&s, round)
}

// Locator is an incremental Locate cache for the common access pattern —
// one Locate per round, rounds non-decreasing. It tracks the current
// phase's start round and length, so a lookup inside the same phase is
// pure integer arithmetic and the exp() of Iterations is evaluated once
// per phase transition instead of once per phase per call (the seed
// code's per-round Locate walked every phase from StartPhase, which made
// the schedule arithmetic a top cost of E3-scale CONGEST runs). A round
// before the cached phase restarts the walk, so results are identical to
// Schedule.Locate for any access order.
//
// The cache holds no schedule: its holder passes the same one to every
// Locate, so a CongestProc pointing at its run's shared parameters keeps
// only three integers here. The zero value is an empty cache; a holder
// whose schedule changes resets it to the zero value.
type Locator struct {
	phase  int // cached phase
	start  int // first round of the cached phase
	rounds int // PhaseRounds(phase); 0 while the cache is empty
}

// Locate converts a global round number to phase coordinates under s;
// it returns exactly what s.Locate(round) would. A phase is never 0
// rounds long (at least one iteration of 2i+5 rounds, an odd number),
// so rounds == 0 marks the empty cache. The phase walk compares
// round-start with the phase length, so a length saturated at
// math.MaxInt cannot wrap the sum.
func (l *Locator) Locate(s *Schedule, round int) Loc {
	if round < 0 {
		panic("counting: negative round")
	}
	if l.rounds == 0 || round < l.start {
		l.phase = s.StartPhase
		l.start = 0
		l.rounds = s.PhaseRounds(l.phase)
	}
	for round-l.start >= l.rounds {
		l.start += l.rounds
		l.phase++
		l.rounds = s.PhaseRounds(l.phase)
	}
	rel := round - l.start
	iterLen := IterationRounds(l.phase)
	return Loc{
		Phase:     l.phase,
		Iteration: rel/iterLen + 1,
		Offset:    rel % iterLen,
	}
}

// RoundsThroughPhase returns the total number of rounds from round 0 up to
// and including the last round of phase `last`, saturated at
// math.MaxInt: a run budget that large is never reached.
func (s Schedule) RoundsThroughPhase(last int) int {
	total := 0
	for i := s.StartPhase; i <= last; i++ {
		r := s.PhaseRounds(i)
		if total > math.MaxInt-r {
			return math.MaxInt
		}
		total += r
	}
	return total
}

// BlacklistSuffix returns the length of the trusted path suffix in phase
// i (Algorithm 2, line 20): floor((1-epsilon)*i), but never less than 1.
// The floor of the paper's expression is 0 in the early phases at
// simulation scale, which would blacklist even the directly attached
// sender whose identity the synchronous model guarantees (a Byzantine
// node cannot fake its ID over an edge, Section 2). Trusting at least the
// final hop preserves the paper's invariant — only nodes at distance
// >= floor((1-eps)i) from the receiver are ever blacklisted — while
// keeping the small-n regime live.
func BlacklistSuffix(i int, epsilon float64) int {
	// The small additive fudge keeps exact products like 0.2*20 from
	// flooring to 3 due to binary rounding.
	s := int(math.Floor((1-epsilon)*float64(i) + 1e-9))
	if s < 1 {
		s = 1
	}
	return s
}

// DeriveEpsilon computes the epsilon of equation (3):
//
//	epsilon = 1 - (1-delta)*gamma/ln(d)
//
// chosen so that the trusted suffix floor((1-eps)*i) matches the
// guaranteed Byzantine-free radius (1-delta)*gamma*log_d(n) when the
// phase counter i reaches ln(n).
func DeriveEpsilon(gamma, delta float64, d int) float64 {
	if d < 2 {
		panic("counting: DeriveEpsilon requires d >= 2")
	}
	return 1 - (1-delta)*gamma/math.Log(float64(d))
}

// ActivationProbability returns c1*i/d^i, the per-iteration probability
// that a node of degree d becomes a beacon origin in phase i (line 5).
func ActivationProbability(c1 float64, i, d int) float64 {
	if i < 1 || d < 2 {
		return 0
	}
	p := c1 * float64(i) / math.Pow(float64(d), float64(i))
	if p > 1 {
		p = 1
	}
	return p
}
