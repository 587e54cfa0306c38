package sim

// New is the engine constructor: one construction path over any
// Topology — a static graph, an implicit family or a churning network
// alike (see newEngine). The execution shape is configured after
// construction, before the first Run, through the setters
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
	return newEngine(topo, o.seed)
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
