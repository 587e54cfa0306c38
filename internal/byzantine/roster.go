package byzantine

import (
	"fmt"

	"byzcount/internal/xrand"
)

// Roster maintains a Byzantine placement as the membership of a mutable
// substrate turns over. A static placement decides the mask once; under
// churn the adversary's budget is a *fraction* of the live population,
// so the roster re-evaluates it at every arrival: the joiner-is-
// Byzantine decision is drawn from the scenario's dedicated split
// stream, which keeps whole churn+adversary runs pure functions of the
// root seed (the draw sequence depends only on the membership history,
// which is itself seed-determined).
//
// The drift-free rule: a joiner turns Byzantine with probability
// p = clamp(target*(alive+1) - byz, 0, 1), so the expected Byzantine
// count after the join is exactly target*(alive+1) and the realized
// fraction tracks the target within 1/alive however long the run turns
// members over (pinned by TestRosterMaintainsFraction).
type Roster struct {
	target float64
	rng    *xrand.Rand
	byz    []bool
	nByz   int
	nAlive int
}

// NewRoster builds a roster from an initial placement mask (one entry
// per substrate slot; dead slots must be false). target is the
// Byzantine fraction to maintain under turnover and rng the stream the
// joiner decisions consume.
func NewRoster(initial []bool, alive int, target float64, rng *xrand.Rand) (*Roster, error) {
	if target < 0 || target > 1 {
		return nil, fmt.Errorf("byzantine: roster target %v outside [0,1]", target)
	}
	if rng == nil {
		return nil, fmt.Errorf("byzantine: roster needs a random stream")
	}
	r := &Roster{
		target: target,
		rng:    rng,
		byz:    append([]bool(nil), initial...),
		nAlive: alive,
	}
	r.nByz = Count(initial)
	return r, nil
}

// IsByz reports whether slot v currently hosts a Byzantine node.
func (r *Roster) IsByz(v int) bool { return v >= 0 && v < len(r.byz) && r.byz[v] }

// Count returns the current number of Byzantine members.
func (r *Roster) Count() int { return r.nByz }

// Alive returns the current live population the roster tracks.
func (r *Roster) Alive() int { return r.nAlive }

// Fraction returns the realized Byzantine fraction (0 when empty).
func (r *Roster) Fraction() float64 {
	if r.nAlive == 0 {
		return 0
	}
	return float64(r.nByz) / float64(r.nAlive)
}

// OnLeave records the departure of slot v's occupant.
func (r *Roster) OnLeave(v int) {
	if v < 0 || v >= len(r.byz) {
		return
	}
	if r.byz[v] {
		r.nByz--
		r.byz[v] = false
	}
	r.nAlive--
}

// Record registers an externally decided arrival at slot v without
// consuming the roster's stream — for scripted scenarios ("exactly the
// first joiner is Byzantine") where the decision is part of the spec,
// not the randomness.
func (r *Roster) Record(v int, isByz bool) {
	for v >= len(r.byz) {
		r.byz = append(r.byz, false)
	}
	r.byz[v] = isByz
	if isByz {
		r.nByz++
	}
	r.nAlive++
}

// OnJoin decides whether the node arriving at slot v is Byzantine,
// records the decision, and returns it. The decision consumes the
// roster's stream via the drift-free Bernoulli rule documented on
// Roster.
func (r *Roster) OnJoin(v int) bool {
	for v >= len(r.byz) {
		r.byz = append(r.byz, false)
	}
	p := r.target*float64(r.nAlive+1) - float64(r.nByz)
	isByz := r.rng.Bernoulli(p)
	r.byz[v] = isByz
	if isByz {
		r.nByz++
	}
	r.nAlive++
	return isByz
}
