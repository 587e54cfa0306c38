package sim

import "byzcount/internal/graph"

// Accessors for the black-box tests in package sim_test, which observe
// engine state the program itself never reads back.

// Graph returns the underlying static network graph, or nil for an
// engine built over a mutable Topology.
func (e *Engine) Graph() *graph.Graph { return e.g }

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
