package expt

import (
	"fmt"
	"math"

	"byzcount/internal/counting"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// byzCount returns the paper's Byzantine budget floor(n^exponent).
func byzCount(n int, exponent float64) int {
	b := int(math.Floor(math.Pow(float64(n), exponent)))
	if b < 0 {
		b = 0
	}
	if b >= n {
		b = n - 1
	}
	return b
}

// meanEstimate returns the mean decided estimate among honest vertices.
func meanEstimate(o *ScenarioOutcome) float64 {
	vals := counting.DecidedEstimates(o.Outcomes, o.Honest)
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += float64(v)
	}
	return sum / float64(len(vals))
}

// congestMaxRounds bounds a CONGEST run safely past the MaxPhase wall.
func congestMaxRounds(p counting.CongestParams) int {
	return p.Schedule.RoundsThroughPhase(p.MaxPhase + 1)
}

// congestSlab hands out a run's CONGEST procs in slot order. They come
// from one allocation of the expected count and point at the slab's one
// copy of the run's parameters. A proc past that count (a joiner) is an
// allocation of its own.
type congestSlab struct {
	params counting.CongestParams
	free   []counting.CongestProc
}

// newCongestSlab returns a slab of n procs under params.
func newCongestSlab(params counting.CongestParams, n int) *congestSlab {
	s := &congestSlab{params: params}
	s.free = counting.NewCongestProcs(&s.params, n)
	return s
}

// proc returns the slab's next proc. It ignores its argument, so it
// serves as runProcs' honestProc.
func (s *congestSlab) proc(int) sim.Proc {
	if len(s.free) == 0 {
		return &counting.NewCongestProcs(&s.params, 1)[0]
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// hnd builds the H(n,d) substrate or fails the experiment. Builds go
// through the deterministic substrate cache: rng must be a stream
// dedicated to this build (every caller passes a fresh split), so its
// seed identifies the draw and identical streams reuse one graph.
func hnd(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
	g, err := cachedSubstrate("hnd", n, d, rng.Seed(), false,
		func() (*graph.Graph, error) { return graph.HND(n, d, rng) })
	if err != nil {
		return nil, fmt.Errorf("expt: building H(%d,%d): %w", n, d, err)
	}
	return g, nil
}

// nSweep returns the network-size sweep for the config.
func nSweep(cfg Config, full []int, quick []int) []int {
	if cfg.Quick {
		return quick
	}
	return full
}
