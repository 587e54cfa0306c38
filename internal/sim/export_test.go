package sim

import (
	"fmt"

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

// OccupancyError checks a sparse engine's pending counts and occupancy
// bits against its ring: each (shard, slot)'s occCnt must equal the
// messages its rows hold, and every non-empty row must have its bit
// set (a set bit over an empty row is allowed: it costs an empty
// Step). It returns nil on an engine that keeps no occupancy.
func (e *Engine) OccupancyError() error {
	if !e.sparse || e.ring == nil {
		return nil
	}
	w := e.window
	for s, r := range e.ranges {
		for slot := 0; slot < w; slot++ {
			held := int64(0)
			for v := r[0]; v < r[1]; v++ {
				k := len(e.ring[slot][v])
				if k == 0 {
					continue
				}
				held += int64(k)
				if b := v - r[0]; e.occ[s*w+slot][b>>6]&(1<<(b&63)) == 0 {
					return fmt.Errorf("shard %d slot %d: vertex %d holds %d messages, its bit is clear", s, slot, v, k)
				}
			}
			if c := e.occCnt[s*w+slot]; c != held {
				return fmt.Errorf("shard %d slot %d: count %d, rows hold %d", s, slot, c, held)
			}
		}
	}
	return nil
}
