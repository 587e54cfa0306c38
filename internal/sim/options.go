package sim

import "byzcount/internal/graph"

// New is the engine constructor: one entry point over any substrate,
// configured by functional options.
// A *graph.Graph dispatches to the static fast path — CSR ingestion,
// adjacency aliasing, zero per-round overhead — and every other
// Topology to the epoch-stamped lazy-resolution path, so callers pick
// a substrate, not a constructor.
//
//	eng := sim.New(g, sim.WithSeed(7), sim.WithEdgeCapacity(512))
//	eng := sim.New(net, sim.WithSeed(9), sim.WithParallelism(8),
//		sim.WithDelayModel(sim.UniformDelay{Min: 1, Max: 4}))
func New(topo Topology, opts ...Option) *Engine {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	var e *Engine
	if g, ok := topo.(*graph.Graph); ok {
		e = newStaticEngine(g, o.seed)
	} else {
		e = newTopologyEngine(topo, o.seed)
	}
	if o.workers > 1 {
		e.SetParallelism(o.workers)
	}
	if o.capBits > 0 {
		e.SetEdgeCapacity(o.capBits)
	}
	if o.delay != nil {
		e.SetDelayModel(o.delay)
	}
	if o.fault != nil {
		e.SetFaultModel(o.fault)
	}
	return e
}

// options is the merged result of applying Options; zero values mean
// engine defaults (seed 0, serial, LOCAL model, unit-latency delivery).
type options struct {
	seed    uint64
	workers int
	capBits int
	delay   DelayModel
	fault   FaultModel
}

// Option configures New.
type Option func(*options)

// WithSeed sets the engine seed that node IDs and every per-slot,
// per-sender random stream derive from. Default 0 (a valid seed — runs
// are deterministic either way).
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithParallelism sets the Step-shard worker count (see
// SetParallelism); values <= 1 keep the serial engine.
func WithParallelism(workers int) Option { return func(o *options) { o.workers = workers } }

// WithEdgeCapacity switches the engine to the CONGEST model with the
// given per-edge per-round payload-bit budget (see SetEdgeCapacity);
// values <= 0 keep the LOCAL model.
func WithEdgeCapacity(bits int) Option { return func(o *options) { o.capBits = bits } }

// WithDelayModel installs a delivery-latency model (see SetDelayModel);
// nil keeps the default unit latency.
func WithDelayModel(m DelayModel) Option { return func(o *options) { o.delay = m } }

// WithFaultModel installs a message-fault model (see SetFaultModel);
// nil keeps the lossless network.
func WithFaultModel(m FaultModel) Option { return func(o *options) { o.fault = m } }
