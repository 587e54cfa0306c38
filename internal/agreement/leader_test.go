package agreement

import (
	"testing"

	"byzcount/internal/byzantine"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

func runLeader(t *testing.T, n, d int, params LeaderParams, byz []bool,
	mkByz func(v int) sim.Proc, seed uint64) ([]sim.Proc, []bool) {
	t.Helper()
	g, err := graph.HND(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(seed+1))
	procs := make([]sim.Proc, n)
	honest := make([]bool, n)
	for v := range procs {
		if byz != nil && byz[v] {
			procs[v] = mkByz(v)
		} else {
			honest[v] = true
			procs[v] = NewLeaderProc(params)
		}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(params.FloodRounds + 4); err != nil {
		t.Fatal(err)
	}
	return procs, honest
}

func TestLeaderFromEstimate(t *testing.T) {
	p := LeaderFromEstimate(3, 8)
	if p.NHat != 512 {
		t.Errorf("NHat = %g", p.NHat)
	}
	if p.FloodRounds != 9 || p.C != 4 {
		t.Errorf("params = %+v", p)
	}
	if q := LeaderFromEstimate(0, 8); q.NHat != 8 {
		t.Errorf("degenerate NHat = %g", q.NHat)
	}
}

func TestLeaderElectionConverges(t *testing.T) {
	// The counting-derived estimate for n=512, d=8 is ~3; the election
	// should produce near-unanimous agreement on one candidate.
	const n, d = 512, 8
	params := LeaderFromEstimate(3, d)
	procs, honest := runLeader(t, n, d, params, nil, nil, 1)
	frac, leader := LeaderAgreement(procs, honest)
	if frac < 0.99 {
		t.Fatalf("agreement fraction %g", frac)
	}
	if leader == 0 {
		t.Fatal("no leader elected")
	}
	// The winner must be an actual candidate's ID.
	found := false
	for _, p := range procs {
		lp := p.(*LeaderProc)
		if lp.candidate {
			if id, ok := lp.Leader(); ok && id == leader {
				found = true
			}
		}
	}
	if !found {
		t.Error("elected leader is not a self-nominated candidate holding its own ID")
	}
}

func TestLeaderCandidateCountNearC(t *testing.T) {
	const n, d = 512, 8
	// Average candidates across seeds: expectation is C * n / NHat ≈ 4
	// when the estimate matches the true size.
	params := LeaderFromEstimate(3, d) // NHat = 512 = n
	total := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		procs, _ := runLeader(t, n, d, params, nil, nil, uint64(10+trial))
		for _, p := range procs {
			if p.(*LeaderProc).candidate {
				total++
			}
		}
	}
	mean := float64(total) / trials
	if mean < 1.5 || mean > 8 {
		t.Errorf("mean candidates %g, want ~4", mean)
	}
}

func TestLeaderElectionUnderCrashes(t *testing.T) {
	const n, d = 256, 8
	rng := xrand.New(20)
	byz := make([]bool, n)
	for _, v := range rng.Sample(n, 16) {
		byz[v] = true
	}
	params := LeaderFromEstimate(3, d)
	procs, honest := runLeader(t, n, d, params, byz, func(v int) sim.Proc {
		return byzantine.NewCrash(NewLeaderProc(params), 2+rng.SplitN("c", v).Intn(4))
	}, 21)
	frac, _ := LeaderAgreement(procs, honest)
	// Crash faults thin the flood but expander redundancy carries it.
	if frac < 0.95 {
		t.Errorf("agreement fraction %g under crashes", frac)
	}
}

func TestLeaderUndersizedEstimateOverNominates(t *testing.T) {
	// The failure mode counting prevents: an estimate far below log n
	// makes nearly everyone a candidate and the flood window too short,
	// so agreement splinters across the graph.
	const n, d = 512, 8
	params := LeaderParams{NHat: 8, C: 4, FloodRounds: 1}
	procs, honest := runLeader(t, n, d, params, nil, nil, 22)
	candidates := 0
	for _, p := range procs {
		if p.(*LeaderProc).candidate {
			candidates++
		}
	}
	if candidates < n/4 {
		t.Fatalf("only %d candidates; undersized estimate should over-nominate", candidates)
	}
	frac, _ := LeaderAgreement(procs, honest)
	if frac > 0.5 {
		t.Errorf("agreement %g despite an undersized estimate; contrast would be vacuous", frac)
	}
}

func TestLeaderProcAccessors(t *testing.T) {
	p := NewLeaderProc(LeaderParams{})
	if p.params.C != 4 || p.params.FloodRounds != 1 {
		t.Errorf("defaults = %+v", p.params)
	}
	if _, ok := p.Leader(); ok {
		t.Error("fresh proc has a leader")
	}
	if p.Halted() || p.candidate {
		t.Error("fresh proc state")
	}
	if f, _ := LeaderAgreement(nil, nil); f != 0 {
		t.Error("empty agreement")
	}
}
