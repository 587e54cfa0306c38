package sim

import "byzcount/internal/graph"

// Accessors for the black-box tests in package sim_test, which observe
// engine state the program itself never reads back.

// Graph returns the underlying static network graph, or nil for an
// engine built over a mutable Topology.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Env returns the environment of vertex v (engine-owned; do not mutate).
func (e *Engine) Env(v int) *Env { return &e.envs[v] }
