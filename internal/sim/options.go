package sim

import "byzcount/internal/graph"

// New is the engine constructor: one entry point over any substrate.
// A *graph.Graph dispatches to the static fast path — CSR ingestion,
// adjacency aliasing, zero per-round overhead — and every other
// Topology to the epoch-stamped lazy-resolution path, so callers pick
// a substrate, not a constructor. The execution shape is configured
// after construction, before the first Run, through the setters
// (SetParallelism, SetEdgeCapacity, SetDelayModel, SetFaultModel):
//
//	eng := sim.New(net, sim.WithSeed(9))
//	eng.SetParallelism(8)
//	eng.SetDelayModel(sim.UniformDelay{Min: 1, Max: 4})
func New(topo Topology, opts ...Option) *Engine {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	if g, ok := topo.(*graph.Graph); ok {
		return newStaticEngine(g, o.seed)
	}
	return newTopologyEngine(topo, o.seed)
}

// options is the merged result of applying Options; the zero value is
// seed 0.
type options struct {
	seed uint64
}

// Option configures New.
type Option func(*options)

// WithSeed sets the engine seed that node IDs and every per-slot,
// per-sender random stream derive from. Default 0 (a valid seed — runs
// are deterministic either way).
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }
