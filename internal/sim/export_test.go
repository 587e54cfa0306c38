package sim

import (
	"slices"

	"byzcount/internal/graph"
)

// Accessors for the black-box tests in package sim_test, which observe
// engine state the program itself never reads back.

// Env returns the environment of vertex v (engine-owned; do not mutate).
func (e *Engine) Env(v int) *Env { return &e.envs[v] }

// EnvsOverIDs returns standalone envs for the vertices of g whose
// NeighborID reads ids, as an engine's slots read its ID table: a write
// into ids is seen at once. They have no random stream (Rand panics).
func EnvsOverIDs(g *graph.Graph, ids []NodeID) []Env {
	table := &Engine{ids: ids}
	envs := make([]Env, g.N())
	for v := range envs {
		var nbrs []int
		for _, w := range g.Adj(v) {
			nbrs = append(nbrs, int(w))
		}
		envs[v] = Env{Vertex: v, ID: ids[v], Degree: len(nbrs), Neighbors: nbrs, eng: table}
	}
	return envs
}

// InFlight counts the copies admitted and not yet delivered or
// dropped: those waiting in ring rows and, after a pull tick, those the
// last tick's outboxes hold — one per incident edge for a broadcast and
// one for a unicast to a neighbor, the copies toPush would move into
// the ring. It changes no engine state.
func (e *Engine) InFlight() int {
	n := 0
	for _, box := range e.ring {
		for _, row := range box {
			n += len(row)
		}
	}
	if !e.pulled {
		return n
	}
	par := (e.metrics.Rounds - 1) & 1
	for v := range e.envs {
		for _, m := range e.envs[v].scratch[par] {
			if m.To == AllNeighbors {
				n += len(e.envs[v].Neighbors)
			} else if _, ok := slices.BinarySearch(e.sortedAdj[v], int32(m.To)); ok && uint(m.To) < uint(e.n) {
				n++
			}
		}
	}
	return n
}
