//go:build bigmem && !race

package expt

// The million-vertex end-to-end scenario, opt-in via -tags=bigmem
// (~10 s wall, ~12 s CPU and 1.7 GB peak RSS on a 2-core VM, go1.24):
//
//	go test -tags=bigmem -run TestBig -timeout 30m ./internal/expt/
//
// This is the acceptance path for the implicit-substrate layer: a torus
// scenario at n=10^6 through the full registry pipeline — placement,
// adversary hooks, the congest protocol, engine metrics — without ever
// materializing adjacency. MaxPhase=2 bounds the run at 71 rounds (the
// phase wall; at d=8 congest cannot decide its way to phase ~20 inside
// any reasonable test budget, and the point here is the substrate
// plumbing, not the estimate).

import (
	"testing"

	"byzcount/internal/xrand"
)

func TestBigImplicitTorusScenario(t *testing.T) {
	const n = 1_000_000
	sc := Scenario{
		Proto:     "congest",
		Substrate: "torus-implicit",
		N:         n,
		D:         8,
		MaxPhase:  2,
	}
	out, err := RunScenario(sc, xrand.New(42).Split("big"), RunOptions{})
	if err != nil {
		t.Fatalf("RunScenario at n=%d: %v", n, err)
	}
	if out.Graph != nil {
		t.Fatal("implicit scenario materialized a graph")
	}
	if out.Topology == nil || out.Topology.Slots() != n {
		t.Fatalf("outcome topology = %v, want %d implicit slots", out.Topology, n)
	}
	if len(out.Outcomes) != n || len(out.Honest) != n {
		t.Fatalf("outcome sizes %d/%d, want %d", len(out.Outcomes), len(out.Honest), n)
	}
	if out.Rounds <= 0 {
		t.Fatalf("run reported %d rounds", out.Rounds)
	}
	m := out.Metrics
	if m.Messages <= 0 {
		t.Fatal("run delivered no messages")
	}
	t.Logf("n=%d rounds=%d messages=%d bits=%d", n, out.Rounds, m.Messages, m.Bits)
}
