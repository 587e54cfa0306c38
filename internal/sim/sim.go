// Package sim implements the synchronous message-passing model of
// Section 2 of the paper: computation proceeds in rounds, a message sent
// over an edge in round r is delivered at the start of round r+1, local
// computation is free, and the engine stamps the true sender on every
// message so that Byzantine nodes cannot fake their IDs.
//
// The engine is deterministic: identical seeds and processes produce
// identical executions, which makes every experiment row reproducible.
// It runs serially by default; SetParallelism switches it to a sharded
// worker-pool mode that steps vertex ranges concurrently, with every
// inbox still assembled in ascending sender order, so delivery order,
// edge-capacity decisions, and metrics are byte-for-byte identical to
// the serial engine (see the ordering notes on roundVT and
// mergeShardVT). Serial or parallel, every tick is one step walk over
// each range (stepRange), followed on a parallel engine that pushes by
// one merge; on an engine with TickDriven procs the walk steps only
// the round-driven procs and the vertices with messages (see vt.go).
//
// The network is any Topology — a static graph, an implicit family or
// a churning network — and New is its one constructor. Every topology
// is epoch-stamped: a vertex's neighborhood is resolved into its
// per-vertex buffers when it is first stepped and again only when the
// epoch moves, and membership turns over at round boundaries via
// Detach/AttachAt with slot recycling, so churn runs share the static
// runs' allocation-free steady state and serial/parallel bit-equality.
// A functional option selects the seed, and setters select
// parallelism, edge capacity, and delivery models.
//
// Rounds are ticks of virtual time: Run schedules every admitted
// message into a calendar-queue delivery ring, keyed on (deliver tick,
// sender slot, per-sender send sequence). Lockstep synchrony is the
// unit-latency model — the default when no DelayModel is installed —
// whose two-slot ring is the classic current/next double buffer; on an
// engine without a hook, a capacity or a TickDriven proc a lockstep
// tick skips the ring and each receiver pulls its inbox from its
// neighbors' outboxes instead (see pull.go). Partial synchrony is a
// configuration of the same loop, not a different engine: a DelayModel
// (and/or FaultModel) draws latencies and losses from per-sender split
// streams — see delay.go for the determinism argument.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"byzcount/internal/xrand"
)

// NodeID is a node identifier drawn uniformly from the full 64-bit space.
// Per the model, IDs are comparable black boxes that leak no information
// about the network size.
type NodeID uint64

// Topology is the engine's view of a network: a dense slot space
// (alive slots plus recycled ones), per-slot neighbor multisets and
// their sizes, and an epoch counter that must be bumped on every
// structural change. The engine resolves a vertex's neighborhood (into
// reusable buffers, so steady-state rounds stay allocation-free) when
// the vertex is first stepped and again exactly when the topology's
// epoch differs from the vertex's last-seen epoch. Topologies may only
// change at round boundaries — from a between-rounds hook (see
// SetBetweenRounds), never from a Step.
type Topology interface {
	// Slots is the size of the vertex index space, alive or not.
	Slots() int
	// Alive reports whether slot v currently hosts a node.
	Alive(v int) bool
	// Epoch is a counter bumped on every structural change (join, leave,
	// rewire). A constant epoch means the engine never re-resolves.
	Epoch() uint64
	// EpochOf reports the Epoch value at which slot v's neighborhood
	// last changed (0 if never). It lets the engine refresh only the
	// slots a churn event actually touched — O(churn * degree) per
	// round instead of O(n * degree) — so implementations must stamp
	// every slot whose neighbor multiset (or whose presence in others'
	// multisets) a mutation alters.
	EpochOf(v int) uint64
	// AppendNeighbors appends v's neighbor multiset to buf and returns
	// the extended slice (one entry per incident edge; duplicates mean
	// parallel edges). It must not retain buf.
	AppendNeighbors(v int, buf []int) []int
	// Degree reports the current size of slot v's neighbor multiset. New
	// carves each slot's buffers at this size out of bounded slab
	// chunks, so the first resolve of a vertex appends in place instead
	// of growing a nil slice: a million-slot engine's first round costs
	// O(slots/chunk) allocations instead of two per slot. A slot that
	// later outgrows its carve moves to a private buffer on append, so a
	// topology whose degrees change stays correct.
	Degree(v int) int
}

// staleEpoch marks a vertex whose neighborhood has never been resolved;
// topology epochs start at 0 and only increment, so they never collide
// with it.
const staleEpoch = ^uint64(0)

// slabChunkEntries bounds one slab chunk (2MiB for []int): big enough
// that chunk turnover vanishes in construction cost, small enough that
// million-slot engines never demand one giant contiguous block or pay
// append-doubling copies.
const slabChunkEntries = 1 << 18

// slab carves exact-capacity slices out of bounded chunks. Each carve
// is a three-index sub-slice (its own capacity limit, so a later append
// past the carved degree safely migrates that slice instead of
// clobbering its neighbor), chunks are never grown or copied, and
// at most one carve's worth of tail waste is abandoned per chunk.
type slab[T any] struct {
	cur       []T
	remaining int // entries still expected; sizes the next chunk
}

func newSlab[T any](total int) *slab[T] { return &slab[T]{remaining: total} }

// carve returns a zero-length slice with capacity exactly n, backed by
// the current chunk (a fresh chunk is carved when n does not fit).
func (s *slab[T]) carve(n int) []T {
	if len(s.cur)+n > cap(s.cur) {
		size := s.remaining
		if size > slabChunkEntries {
			size = slabChunkEntries
		}
		if size < n {
			size = n // single carve larger than the chunk bound
		}
		s.cur = make([]T, 0, size)
	}
	lo := len(s.cur)
	s.cur = s.cur[:lo+n]
	s.remaining -= n
	return s.cur[lo : lo : lo+n]
}

// Payload is the interface satisfied by all message payloads. SizeBits
// reports the payload's size for the message-size metrics that distinguish
// the CONGEST-style algorithm (small messages) from the LOCAL one.
type Payload interface {
	SizeBits() int
}

// Incoming is a delivered message. From is the true sender vertex and
// FromID its true ID — both stamped by the engine, never by the sender.
type Incoming struct {
	From    int
	FromID  NodeID
	Payload Payload
}

// Outgoing is a message to send. To is a neighbor of the sender in the
// network graph, or AllNeighbors for a broadcast; messages addressed
// elsewhere are dropped and counted as violations.
type Outgoing struct {
	To      int
	Payload Payload
}

// AllNeighbors is the Outgoing.To of a broadcast: the engine delivers
// the entry's payload once per incident edge of the sender, in
// Env.Neighbors order, exactly as if the output held one entry per edge
// (see Env.AppendBroadcast). Any other negative To is a violation. The
// engine takes the targets from the sender's Env.Neighbors without a
// neighbor check, so that slice must hold the engine's adjacency (see
// Env). On an engine that pulls (see Engine.Run) the entry stays in the
// sender's outbox and each neighbor copies it from there.
const AllNeighbors = -1

// Env carries the static, strictly local knowledge a process is allowed:
// its vertex index (for the engine's bookkeeping only — protocols must not
// infer anything from it), its random ID, its degree, its neighbor list
// and their IDs (NeighborID), and a private random stream.
//
// Neighbors belongs to the engine, which fills and refreshes it;
// processes read it and must not modify it or its elements. Broadcasts
// trust it: an AllNeighbors entry is delivered to Neighbors as it
// stands, with no check against the engine's own adjacency, so a
// process that wrote into Neighbors would deliver to whatever it wrote
// (and an out-of-range element panics inside the engine) instead of
// being counted as a violation.
type Env struct {
	Vertex    int
	ID        NodeID
	Degree    int
	Neighbors []int

	// rand is the slot's private stream, derived lazily by Rand() from
	// the engine's seed stream. A stream is one 64 B object until its
	// 274th draw and adds a 4.9 KB register after (see package xrand),
	// so slots whose processes never draw — flood workloads, vacant
	// slots, adversaries — skip even that; a counting node drawing a few
	// coins per iteration stays at the small size.
	rand *xrand.Rand
	// eng is the engine owning the slot: Rand derives from its seed
	// stream and NeighborID reads its ID table.
	eng *Engine

	// scratch[p] is the output of the env's last Step at a tick of
	// parity p — its outbox — and the buffer Scratch hands out at the
	// next such tick (par is the parity of the tick being stepped). Two
	// buffers, because a pulling engine's receivers read a sender's
	// output during the tick after it was sent, while the sender
	// already builds the next one. Each vertex is stepped by exactly one
	// goroutine per round, and the engine adopts every returned slice
	// here (keeping any growth), which is what makes steady-state
	// sending allocation-free.
	scratch [2][]Outgoing
	par     uint8
}

// Rand returns the slot's private random stream, deriving it from the
// engine seed on first use. The stream is a pure function of
// (engine seed, vertex) — when it is created changes nothing about what
// it draws — and it persists across membership turnover: a joiner
// recycling the slot continues the stream where the leaver left it.
func (e *Env) Rand() *xrand.Rand {
	if e.rand == nil {
		e.rand = e.eng.root.SplitN("node", e.Vertex)
	}
	return e.rand
}

// NeighborID returns the ID of Neighbors[k], read from the engine's ID
// table, so a joiner's ID is seen by its neighbors from the moment it
// is attached. The paper's Algorithm 1 starts from the inclusive 1-hop
// neighborhood B(u,1), so knowledge of neighbor IDs is part of the
// model. It needs an engine-owned env (or a WithRand copy of one); a
// standalone env has no ID table.
func (e *Env) NeighborID(k int) NodeID { return e.eng.ids[e.Neighbors[k]] }

// WithRand returns a pointer to a copy of the env using rng as its
// private stream — the constructor for the standalone envs that
// protocol tests in other packages step by hand. The receiver is never
// mutated: the copy shares the receiver's slices (Neighbors, scratch)
// and engine but replaces the stream, so an engine-owned env passed
// through WithRand keeps its own lazily-derived stream. Engine slots
// derive theirs from the engine seed instead.
func (e *Env) WithRand(rng *xrand.Rand) *Env {
	c := *e
	c.rand = rng
	return &c
}

// Scratch returns the env's reusable outgoing buffer truncated to zero
// length. Step implementations append into it (directly or via
// AppendBroadcast) and return it; once the buffer has grown to the
// workload's high-water mark, building the round's output allocates
// nothing. The returned slice is engine-owned from the moment Step
// returns until the process's Step after next (see Proc) — processes
// must not retain it or mix it with Broadcast in the same Step.
func (e *Env) Scratch() []Outgoing { return e.scratch[e.par][:0] }

// AppendBroadcast appends one entry carrying payload to buf, addressed
// to AllNeighbors, and returns the extended slice. The engine delivers
// the entry once per incident edge, in Neighbors order: with parallel
// edges a neighbor receives one copy per edge, matching the model where
// each edge is an independent channel. Each copy is admitted on its own
// (edge capacity, fault verdict, latency draw and metrics are per
// edge), so the one entry behaves exactly like one Outgoing per edge.
func (e *Env) AppendBroadcast(buf []Outgoing, payload Payload) []Outgoing {
	return append(buf, Outgoing{To: AllNeighbors, Payload: payload})
}

// Broadcast returns a one-entry output that sends payload over every
// incident edge (see AppendBroadcast), built in the env's scratch buffer
// (see Scratch for the ownership rules): after the first round it
// performs no allocation.
func (e *Env) Broadcast(payload Payload) []Outgoing {
	out := e.AppendBroadcast(e.scratch[e.par][:0], payload)
	e.scratch[e.par] = out
	return out
}

// Proc is a per-node process. Step is invoked exactly once per round with
// the messages delivered this round and returns the messages to send.
// Halted processes are skipped (they neither receive nor send); once
// Halted returns true it must remain true.
//
// Ownership: the inbox slice passed in is valid only during Step — the
// engine builds the next vertex's inbox in the same buffer — so a
// process copies what it keeps. The slice Step returns belongs to the
// engine until the process's Step after next: a pulling engine's
// receivers read it during the next round, and the engine recycles it
// as the vertex's scratch buffer for the round after (see Env.Scratch).
// Processes must not retain either.
type Proc interface {
	Step(env *Env, round int, in []Incoming) []Outgoing
	Halted() bool
}

// Sequential marks processes whose Step must not run concurrently with
// other processes' Steps — typically adversaries sharing one mutable
// structure (e.g. the consistent fake world of the Remark 1 attack,
// where attachment order is observable). The parallel engine steps every
// Sequential process on the coordinating goroutine in ascending vertex
// order before the concurrent step phase — the serial engine's mutation
// order among them — and admits their output in vertex order with
// everyone else's, so executions stay bit-identical. Processes whose
// state is strictly per-vertex need not (and should not) implement
// this.
type Sequential interface {
	StepsSequentially()
}

// Metrics aggregates message-level measurements across a run.
type Metrics struct {
	Rounds     int   // rounds executed
	Messages   int64 // messages delivered
	Bits       int64 // total payload bits delivered
	MaxMsgBits int   // largest single payload
	Violations int64 // messages addressed to non-neighbors (dropped)
	Capped     int64 // messages dropped by the CONGEST edge capacity
	Dropped    int64 // messages lost to the fault model (admitted, never delivered)
	// DelayClamped counts admitted messages whose DelayModel returned a
	// latency outside [1, MaxDelay] and had it clamped into range. The
	// parsed built-in models never clamp (their parameters are
	// validated), so a nonzero count flags a misconfigured hand-built
	// model instead of silently reshaping its schedule.
	DelayClamped int64
	// TicksSkipped counts empty virtual ticks the serial scheduler
	// fast-forwarded over (see TickDriven). Skipped ticks still count in
	// Rounds and MessagesByRound, so the series' shape is unchanged.
	TicksSkipped  int64
	PerNodeMaxBit []int // per-vertex largest payload sent
	// MessagesByRound[r] is the number of messages sent in round r — the
	// per-round traffic series that makes Algorithm 2's phase structure
	// visible (see report.Sparkline).
	MessagesByRound []int64
}

// routed is one admitted copy waiting in an outbox bucket for the
// merge phase of a parallel push round.
type routed struct {
	to      int32
	from    int32
	payload Payload
}

// workerState is the per-worker scratch of one round: admission budgets
// and shard-local metric accumulators. The accumulators are flushed into
// Metrics after every round; all of them are order-independent
// (integer sums and maxes), so the flush order never changes totals.
type workerState struct {
	// budget[w] is the payload bits the current sender has used toward
	// destination w this round; budgetGen lazily resets it per sender so
	// the slice never needs clearing (the indexed-slice replacement for
	// the old per-round map).
	budget    []int
	budgetGen []uint64
	gen       uint64

	// nbrMark[w] == gen marks w as a neighbor of the sender being
	// processed. Stamping costs O(degree) per sender but makes every
	// membership check one predictable load — a scan or binary search
	// mispredicts its data-dependent exit on nearly every message,
	// which costs more than the whole map lookup it replaced. Only
	// unicast entries need the check (a broadcast's targets are the
	// sender's own adjacency), so a sender is stamped only when its
	// output holds a unicast entry, and the array is allocated for the
	// worker's first such sender (see unicastMarks).
	nbrMark []uint64

	// in is the inbox a pulling worker builds for the vertex it is about
	// to step (see pull); it grows to the largest inbox and is reused.
	in []Incoming

	// vtb[s*(window-1)+d-1] holds this worker's admitted copies
	// destined for shard s with latency d, in ascending sender order
	// (the worker steps a contiguous vertex range in order), on a
	// parallel engine that pushes. Keying by
	// delay rather than ring slot keeps one bucket set per shard under
	// unit latency; the merge maps d to slot (tick+d) mod window. The
	// merge phase for shard s concatenates workers' buckets in worker
	// order EVERY round (not at the delivery tick), so each merge worker
	// touches only its own messages and each ring row accumulates
	// messages round-major, sender-major — exactly the serial schedule.
	vtb [][]routed

	messages     int64
	senders      int // vertices with a non-empty output (pull ticks)
	bits         int64
	violations   int64
	capped       int64
	dropped      int64
	delayClamped int64
	maxMsgBits   int

	// live reports that this worker stepped a live proc without the
	// TickDriven marker at the tick, and tdHalts counts the TickDriven
	// procs that halted in their own Step; roundVT folds both into the
	// tick's halt verdict.
	live    bool
	tdHalts int

	// always and occ are the always and occupancy words of the worker's
	// range for the tick a sparse walk is on (see nextSparse).
	always, occ []uint64
}

// Engine drives a set of processes over a Topology in lock-step rounds.
// Vacant slots carry nil processes, and membership changes at round
// boundaries via Detach/AttachAt.
type Engine struct {
	topo Topology
	n    int         // slot capacity: topo.Slots() at construction, raised by growTo
	root *xrand.Rand // engine seed stream; derives per-slot streams on growth

	procs []Proc
	envs  []Env
	ids   []NodeID

	// vertexOf inverts the occupied slots' ids for O(1) duplicate-ID
	// checks. It is nil until the first Detach or AttachAt builds it
	// (index), so a run without churn never builds it. Detach deletes the
	// departed ID and AttachAt inserts the joiner's, so under balanced
	// churn the map's population is stable and updates never allocate.
	vertexOf map[NodeID]int

	// epochOf[v] is the topology epoch v's neighborhood buffers were
	// last resolved against. curEpoch caches Topology.Epoch() once per
	// round.
	epochOf  []uint64
	curEpoch uint64

	// betweenRounds, if non-nil, runs after every round's delivery and
	// before the all-halted check — the churn hook point.
	betweenRounds func(round int) error

	// regrow is set when the slot arrays grew mid-run (topology growth):
	// worker ranges, shard maps, and scratch are sized to n and must be
	// rebuilt before the next round.
	regrow bool

	// hookAttached records that the current between-rounds hook invoked
	// AttachAt; Run then suppresses the all-halted early return so the
	// joiners get their promised first Step next round.
	hookAttached bool

	// stop, if non-nil, is evaluated after every round; returning true
	// ends the run early (used for "all honest nodes decided" detection).
	stop func(round int) bool

	// cancel, if non-nil, is polled at the top of every round; a closed
	// channel aborts the run with ErrCanceled. This is the cooperative
	// escape hatch for pure-CPU runs: a per-cell timeout or a SIGTERM
	// drain cannot preempt a round, but it never has to wait for more
	// than one.
	cancel <-chan struct{}

	// edgeCapBits, when positive, enforces the CONGEST model's bandwidth
	// restriction: a sender may push at most this many payload bits over
	// one edge per round; excess messages on that edge are dropped and
	// counted in Metrics.Capped. Zero means the LOCAL model (unbounded).
	edgeCapBits int

	metrics Metrics

	// sortedAdj[v] is v's neighbor multiset sorted ascending. A sender
	// with a unicast entry stamps these into its worker's nbrMark array
	// so destination checks are one compare (replaces the old
	// []map[int]bool, whose per-vertex maps dominated setup memory), and
	// a pulling receiver walks them to visit its senders in order.
	sortedAdj [][]int32
	// multi[v] marks a vertex that lists a neighbor more than once — a
	// parallel edge, or a self-loop that a graph lists twice — whose
	// pull takes the multiplicity walk (see pullMulti).
	multi []bool
	// bcast[p][v] summarizes v's outbox of tick parity p
	// (Env.scratch[p]) for a pull in one load from a compact array: the
	// Incoming every neighbor receives when the output is one
	// AllNeighbors entry, else From is outEmpty or outMixed.
	bcast [2][]Incoming
	// senders counts the vertices whose output of the last tick is
	// non-empty, and mail[v] marks, on a tick after a sparse one, a
	// receiver with a sending neighbor (see pullScope).
	senders int
	mail    []bool

	// --- virtual time ---
	// delay/fault are the delivery models; nil delay means unit latency
	// and nil fault a lossless network. Configure both before the first
	// Run (SetDelayModel/SetFaultModel).
	delay DelayModel
	fault FaultModel
	// window is the ring length: the delay model's MaxDelay()+1, at
	// least 2, so an in-flight message's slot (tick+d) mod window never
	// collides with the slot currently being delivered.
	window int
	// ring[s][v] is vertex v's inbox for virtual ticks ≡ s (mod window)
	// on an engine that pushes: a calendar queue whose unit-latency form
	// (window == 2) is a current/next double buffer. This is the inbox
	// arena — rows are truncated after delivery, never freed, so each
	// row stays at its high-water capacity and steady-state rounds
	// allocate nothing. Together with the Env scratch buffers on the
	// send side this is what makes warm rounds allocation-free (see
	// DESIGN.md, "Memory model"). An engine that only pulls never
	// builds it.
	ring [][][]Incoming
	// pulled reports that the messages sent at the last tick wait in
	// the senders' outboxes for a pull, not in the ring;
	// nothing is in flight on a fresh engine, so it starts true.
	pulled bool
	// pullMode is the delivery the worker state was built for (see
	// canPull): pull needs neither buckets nor a shard map.
	pullMode bool
	// delayRng[v] / faultRng[v] are v's private latency/fault streams
	// (pure functions of the engine seed and v), derived lazily on v's
	// first draw. Only models that draw get streams at all (see
	// DelayModel.Draws), so a unit-latency run consumes no stream beyond
	// the processes' own. A stream is one 64 B object until its 274th
	// draw and adds a 4.9 KB register after, so a busy sender's stream
	// grows to full size.
	delayRng []*xrand.Rand
	faultRng []*xrand.Rand
	// tick is the absolute virtual tick of the round being executed —
	// the engine's total executed rounds, not Run's local round index —
	// published to pool workers via dispatch. Ring indexing and the
	// models' round argument use it so in-flight messages stay aligned
	// across consecutive Run calls.
	tick int
	// vtr is the tick's devirtualized model dispatch (see resolveVT),
	// resolved once per round before the step phase and read by every
	// worker.
	vtr vtRound

	// --- sparse stepping ---
	// sparse is set by ensureState when at least one TickDriven proc is
	// attached: the engine then keeps the bitsets below, and a tick
	// steps only the vertices set in always or in the tick's occupancy
	// (see stepRange). Engines without marked procs write no bits.
	sparse bool
	// skip enables fast-forwarding over empty ticks when every live
	// proc is TickDriven (default on; see SetTickSkip / TickDriven).
	skip bool
	// The bitsets are per shard and count from the shard's first
	// vertex: bit b of shard s is vertex ranges[s][0]+b, so each merge
	// worker owns whole words. occ[s*window+slot] marks the vertices of
	// shard s whose row in that ring slot may hold messages: a bit is
	// set on delivery and cleared when the slot's tick is walked, and
	// goes stale when Detach or AttachAt empties the row, which costs
	// the vertex an empty Step. occCnt[s*window+slot] is the exact
	// number of those messages, so the all-empty-tick test is an
	// O(shards) reduction (see occSlotEmpty). always[s] marks the
	// shard's attached procs without the TickDriven marker, which are
	// stepped on every tick.
	occ    [][]uint64
	occCnt []int64
	always [][]uint64
	// isTD marks the vertices whose procs carry the TickDriven marker,
	// and tdLive counts those not halted: set by Attach, and kept by
	// AttachAt, Detach and the halts the step walks see. Every tick's
	// halt verdict reads it.
	isTD   []bool
	tdLive int
	// alwaysLive reports that a proc without the marker may be live:
	// set by attaching one and by a tick that stepped one, and cleared
	// by a tick that stepped none or a skip test that found none (see
	// vtCanSkip). Procs halt for good, so a clear flag stays true to
	// the procs until the next attach.
	alwaysLive bool

	// --- parallel mode ---
	workers int            // requested Step-shard workers; <=1 means serial
	ranges  [][2]int       // contiguous vertex ranges, one per worker
	shardOf []int32        // vertex -> owning range index
	seq     []int          // vertices whose procs implement Sequential, ascending
	isSeq   []bool         // membership mask for seq
	ws      []*workerState // one per range worker; serial rounds use ws[0]
	// seqOut[v] is the output of Sequential vertex v's Step this round,
	// stepped on the coordinator before the parallel step phase and
	// admitted by the range worker owning v in vertex order (nil when v
	// was not stepped).
	seqOut [][]Outgoing

	// vtbReserve, when positive, is the per-bucket capacity every
	// per-(worker, destination-shard, delay) outbox is pre-sized to
	// (see ReserveOutbox) — recorded here so the reservation survives
	// the worker-state rebuilds of SetParallelism and topology growth.
	vtbReserve int

	// Persistent worker pool. Spawning goroutines per round allocates
	// (closure + scheduler bookkeeping), which alone breaks the
	// zero-allocs-per-round contract; instead Run starts len(ranges)
	// workers once, parks them on their wake channels, and drives each
	// round's step and merge phases by sending phase tokens. Channel
	// sends of small scalars and WaitGroup operations allocate nothing,
	// so a steady-state parallel round performs zero heap allocations.
	// The pool lives exactly as long as one Run call (started after
	// ensureState, stopped on return), so engines never leak goroutines.
	wake   []chan poolPhase // one per range worker
	poolWG sync.WaitGroup   // completion barrier for each dispatched phase
	round  int              // round being executed, published via dispatch
	pool   bool             // workers currently parked on wake
}

// poolPhase is a work token sent to pool workers.
type poolPhase uint8

const (
	phaseStep    poolPhase = iota // walk of the worker's range (stepRange)
	phaseMergeVT                  // merge this worker's destination shard into the ring
	phaseExit                     // unwind the worker goroutine
)

// ErrSizeMismatch is returned when the number of attached processes does
// not equal the number of graph vertices.
var ErrSizeMismatch = errors.New("sim: process count does not match vertex count")

// ErrCanceled is returned by Run when the channel installed with
// SetCancel closes mid-run. The engine stops on a round boundary, so
// metrics and transcripts cover exactly the rounds executed; the run's
// results are partial and should be discarded, not interpreted.
var ErrCanceled = errors.New("sim: run canceled")

// newEngine builds the engine over topo. Node IDs are assigned to the
// initially alive slots in ascending slot order from a seed-derived
// stream; vacant slots receive an ID (and a process) only when a joiner
// arrives via AttachAt. A slot's random stream is a pure function of
// (seed, slot), so it survives membership turnover — a joiner recycling
// slot v continues v's stream where the leaver left it, which is what
// keeps churn runs reproducible however the membership history unfolds.
//
// Construction reads only degrees: every Env's Neighbors and the
// sorted-adjacency row are carved at exact degree capacity out of
// bounded slab chunks (O(arcs/chunk) allocations, no per-vertex slices
// and no append-doubling spikes), and each vertex resolves its
// neighborhood into them when it is first stepped (see step). Resolving
// there rather than here keeps the adjacency walk on the step workers
// of a parallel engine.
func newEngine(topo Topology, seed uint64) *Engine {
	n := topo.Slots()
	e := &Engine{
		topo:      topo,
		n:         n,
		root:      xrand.New(seed),
		skip:      true,
		pulled:    true,
		envs:      make([]Env, n),
		ids:       make([]NodeID, n),
		epochOf:   make([]uint64, n),
		sortedAdj: make([][]int32, n),
		multi:     make([]bool, n),
		mail:      make([]bool, n),
		bcast:     [2][]Incoming{make([]Incoming, n), make([]Incoming, n)},
	}
	e.metrics.PerNodeMaxBit = make([]int, n)
	arcs := 0
	for v := 0; v < n; v++ {
		arcs += topo.Degree(v)
	}
	nbrSlab := newSlab[int](arcs)
	saSlab := newSlab[int32](arcs)
	for v := 0; v < n; v++ {
		d := topo.Degree(v)
		e.envs[v] = Env{Vertex: v, eng: e, Neighbors: nbrSlab.carve(d)}
		e.sortedAdj[v] = saSlab.carve(d)
		e.epochOf[v] = staleEpoch
		e.bcast[0][v].From, e.bcast[1][v].From = outEmpty, outEmpty
	}
	e.assignIDs(topo.Alive)
	return e
}

// idMask masks every drawn node ID. It is all ones; the package's tests
// narrow it to force ID collisions.
var idMask = ^NodeID(0)

// assignIDs gives every slot that alive reports a unique node ID, drawn
// in slot order from the engine's "ids" stream. IDs are 64-bit draws, so
// a collision is rare: the draws are checked by sorting a copy, and only
// on a collision are they drawn again sequentially, each checked
// against a map and a duplicate replaced by the stream's next draw. So
// every ID is the one that sequential draw gives.
func (e *Engine) assignIDs(alive func(int) bool) {
	ids := e.root.Split("ids")
	drawn := make([]NodeID, 0, e.n)
	for v := 0; v < e.n; v++ {
		if alive(v) {
			e.ids[v] = NodeID(ids.ID()) & idMask
			e.envs[v].ID = e.ids[v]
			drawn = append(drawn, e.ids[v])
		}
	}
	slices.Sort(drawn)
	if len(slices.Compact(drawn)) == len(drawn) {
		return
	}
	ids = e.root.Split("ids")
	seen := make(map[NodeID]bool, len(drawn))
	for v := 0; v < e.n; v++ {
		if alive(v) {
			id := NodeID(ids.ID()) & idMask
			for seen[id] {
				id = NodeID(ids.ID()) & idMask
			}
			seen[id] = true
			e.ids[v] = id
			e.envs[v].ID = id
		}
	}
}

// index returns the ID index, building it from the occupied slots on
// first use.
func (e *Engine) index() map[NodeID]int {
	if e.vertexOf == nil {
		e.vertexOf = make(map[NodeID]int, e.n)
		for v, p := range e.procs {
			if p != nil {
				e.vertexOf[e.ids[v]] = v
			}
		}
	}
	return e.vertexOf
}

// Attach installs one process per vertex slot. It must be called before
// Run. Nil entries mark vacant slots (dead topology slots awaiting a
// joiner); they are skipped every round until AttachAt fills them.
func (e *Engine) Attach(procs []Proc) error {
	if len(procs) != e.n {
		return fmt.Errorf("%w: %d processes for %d vertices", ErrSizeMismatch, len(procs), e.n)
	}
	e.procs = procs
	e.ws = nil // worker scratch depends on which procs are Sequential
	e.seq = e.seq[:0]
	e.isSeq = make([]bool, len(procs))
	e.isTD = make([]bool, len(procs))
	e.tdLive, e.alwaysLive = 0, true
	for v, p := range procs {
		if _, ok := p.(Sequential); ok {
			e.seq = append(e.seq, v)
			e.isSeq[v] = true
		}
		if _, ok := p.(TickDriven); ok {
			e.isTD[v] = true
			if !p.Halted() {
				e.tdLive++
			}
		}
	}
	return nil
}

// SetBetweenRounds installs a hook that runs at every round boundary —
// after the round's messages have been delivered and before the
// all-halted check. It is the only place topology mutations and
// Detach/AttachAt membership changes are allowed; a non-nil error aborts
// the run. Matching the dynamic-network convention, a node that departs
// in the hook never sees the messages delivered to it this boundary, and
// processes attached in the hook first step in the next round — a round
// in which every pre-existing process had halted does not end the run
// when the hook attached fresh ones.
func (e *Engine) SetBetweenRounds(hook func(round int) error) { e.betweenRounds = hook }

// Detach retires the process at vertex v at a round boundary (a leave):
// the slot's pending deliveries are dropped, its ID leaves the index,
// and the slot is skipped by every subsequent round until AttachAt
// recycles it. The slot's buffers — inbox slabs, scratch, random stream
// — are retained, so a later joiner inherits their capacity and churn
// stays allocation-free in steady state.
func (e *Engine) Detach(v int) error {
	if v < 0 || v >= e.n || e.procs == nil || e.procs[v] == nil {
		return fmt.Errorf("sim: Detach of vacant vertex %d", v)
	}
	e.toPush()
	delete(e.index(), e.ids[v])
	if e.isTD[v] {
		if !e.procs[v].Halted() {
			e.tdLive--
		}
		e.isTD[v] = false
	}
	e.procs[v] = nil
	e.setAlways(v)
	e.dropPending(v)
	if e.isSeq[v] {
		e.isSeq[v] = false
		if i := slices.Index(e.seq, v); i >= 0 {
			e.seq = slices.Delete(e.seq, i, i+1)
		}
	}
	return nil
}

// AttachAt installs process p at vertex v with node ID id at a round
// boundary (a join). The slot must be vacant — freshly detached, dead
// since construction, or beyond the engine's capacity but inside the
// topology's slots (the arrays grow to cover it). Recycled slots keep
// their random stream, resuming where the departed occupant left it, so
// executions remain a pure function of the seed and the membership
// history. Neighbors read the new ID through Env.NeighborID at once;
// every vertex re-resolves at the next epoch change, and v itself is
// refreshed here.
func (e *Engine) AttachAt(v int, id NodeID, p Proc) error {
	if p == nil {
		return fmt.Errorf("sim: AttachAt(%d) with nil process", v)
	}
	if v < 0 {
		return fmt.Errorf("sim: AttachAt of negative vertex %d", v)
	}
	if e.procs == nil {
		return errors.New("sim: AttachAt before Attach")
	}
	if slots := e.topo.Slots(); v >= slots {
		return fmt.Errorf("sim: AttachAt(%d) beyond the topology's %d slots", v, slots)
	}
	e.toPush()
	if v >= e.n {
		e.growTo(v + 1)
	}
	if e.procs[v] != nil {
		return fmt.Errorf("sim: AttachAt(%d): slot already occupied", v)
	}
	index := e.index()
	if w, dup := index[id]; dup {
		return fmt.Errorf("sim: AttachAt(%d): ID already held by vertex %d", v, w)
	}
	e.ids[v] = id
	index[id] = v
	env := &e.envs[v]
	env.ID = id
	e.dropPending(v)
	e.procs[v] = p
	e.hookAttached = true
	if _, ok := p.(TickDriven); ok {
		e.isTD[v] = true
		if !p.Halted() {
			e.tdLive++
		}
	} else {
		e.alwaysLive = true
	}
	e.setAlways(v)
	if _, ok := p.(Sequential); ok {
		e.isSeq[v] = true
		if i, found := slices.BinarySearch(e.seq, v); !found {
			e.seq = slices.Insert(e.seq, i, v)
		}
	}
	e.refreshVertex(v)
	return nil
}

// growTo extends the slot arrays to at least m vertices (topology
// growth beyond the constructed capacity). Growth allocates — it is a
// capacity change, not steady state — and flags the worker ranges,
// shard map, and scratch for rebuild at the next round boundary. The
// arrays grow with doubling headroom (the extra slots sit vacant until
// the topology reaches them), so a net-growing churn run that adds one
// slot per round pays O(log growth) rebuilds and pool restarts, not
// one per round.
func (e *Engine) growTo(m int) {
	if m < 2*e.n {
		m = 2 * e.n
	}
	for v := e.n; v < m; v++ {
		e.procs = append(e.procs, nil)
		e.ids = append(e.ids, 0)
		e.envs = append(e.envs, Env{Vertex: v, eng: e})
		e.sortedAdj = append(e.sortedAdj, nil)
		e.multi = append(e.multi, false)
		e.mail = append(e.mail, false)
		e.bcast[0] = append(e.bcast[0], Incoming{From: outEmpty})
		e.bcast[1] = append(e.bcast[1], Incoming{From: outEmpty})
		e.metrics.PerNodeMaxBit = append(e.metrics.PerNodeMaxBit, 0)
		e.epochOf = append(e.epochOf, staleEpoch)
		e.isSeq = append(e.isSeq, false)
		e.isTD = append(e.isTD, false)
	}
	for s := range e.ring {
		for len(e.ring[s]) < m {
			e.ring[s] = append(e.ring[s], nil)
		}
	}
	for len(e.delayRng) > 0 && len(e.delayRng) < m {
		e.delayRng = append(e.delayRng, nil)
	}
	for len(e.faultRng) > 0 && len(e.faultRng) < m {
		e.faultRng = append(e.faultRng, nil)
	}
	e.n = m
	e.regrow = true
}

// catchUpVertex brings a vertex whose last-seen epoch is stale up to
// the current one: its neighborhood buffers are rebuilt only if the
// topology stamped the slot since the vertex last looked (EpochOf),
// otherwise the stamp alone advances. Rounds without churn therefore
// cost one compare per vertex, and churn rounds re-resolve only the
// slots the events actually touched.
func (e *Engine) catchUpVertex(v int) {
	if e.epochOf[v] != staleEpoch && e.topo.EpochOf(v) <= e.epochOf[v] {
		e.epochOf[v] = e.curEpoch
		return
	}
	e.refreshVertex(v)
}

// refreshVertex re-resolves v's neighborhood against the topology,
// reusing the env's slices and the sorted-adjacency buffer so a refresh
// at the buffers' high-water capacity allocates nothing.
func (e *Engine) refreshVertex(v int) {
	env := &e.envs[v]
	nbrs := e.topo.AppendNeighbors(v, env.Neighbors[:0])
	env.Neighbors = nbrs
	env.Degree = len(nbrs)
	env.ID = e.ids[v]
	sa := e.sortedAdj[v][:0]
	for _, w := range nbrs {
		sa = append(sa, int32(w))
	}
	slices.Sort(sa)
	e.sortedAdj[v] = sa
	e.multi[v] = false
	for i := 1; i < len(sa); i++ {
		e.multi[v] = e.multi[v] || sa[i] == sa[i-1]
	}
	// Stamp the topology's live epoch, not the per-round cache: during a
	// round they are equal (topologies mutate only between rounds), but
	// an AttachAt-time refresh runs after the hook's mutations bumped the
	// epoch past the cache, and stamping the live value is what lets the
	// joiner's resolve stick instead of being redone next round.
	e.epochOf[v] = e.topo.Epoch()
}

// SetStopCondition installs a predicate evaluated after each round; the
// run ends early once it returns true.
func (e *Engine) SetStopCondition(stop func(round int) bool) { e.stop = stop }

// SetCancel installs a cancellation channel polled once per round:
// when done is closed, Run returns ErrCanceled at the next round
// boundary. nil (the default) disables the check. Unlike a stop
// condition, cancellation is an abort, not a result — Run reports the
// error so callers cannot mistake a partial run for a completed one.
func (e *Engine) SetCancel(done <-chan struct{}) { e.cancel = done }

// SetEdgeCapacity switches the engine from the LOCAL model (unbounded
// messages, the default) to the CONGEST model: at most bits payload bits
// per edge per round per sender. Messages beyond the budget are dropped
// and counted in Metrics.Capped. A "small-sized message" in the paper is
// O(log n) bits plus a constant number of node IDs; a cap of a few
// hundred bits admits Algorithm 2's beacons while rejecting Algorithm 1's
// topology dumps.
func (e *Engine) SetEdgeCapacity(bits int) {
	e.edgeCapBits = bits
}

// SetDelayModel installs a delivery-latency model; nil restores the
// default unit latency (lockstep rounds). Configure before the first
// Run: changing the model re-sizes the delivery ring, and messages
// still in flight do not survive that.
func (e *Engine) SetDelayModel(m DelayModel) {
	e.delay = m
	e.dropInFlight()
}

// SetFaultModel installs a message-fault model; nil removes it. Like
// SetDelayModel, configure before the first Run.
func (e *Engine) SetFaultModel(m FaultModel) {
	e.fault = m
	e.dropInFlight()
}

// dropInFlight discards the ring, the buckets and what the outboxes
// hold for a pull (before the first tick nothing is in flight, and an
// engine that goes on pulling needs no ring); ensureState rebuilds the
// state the models need.
func (e *Engine) dropInFlight() {
	e.ws = nil
	e.ring = nil
	e.window = 0
	e.pulled = e.metrics.Rounds == 0
}

// ReserveInbox pre-sizes every delivery-ring row to hold perRow
// messages without growing. Under a jittered delay model the per-(slot,
// vertex) delivery load is stochastic, so row capacities converge to
// their high-water marks only asymptotically — long steady-state runs
// keep paying rare amortized regrowth. A workload that knows a bound on
// simultaneous arrivals (for one message per edge per round: in-degree
// times the maximum delay) can reserve it up front and make warm rounds
// strictly allocation-free, which is what the perf workloads behind the
// TestSteadyStateAllocsVT* gates do. No-op before Attach; rows already
// at capacity perRow or above are left alone.
func (e *Engine) ReserveInbox(perRow int) {
	if perRow <= 0 || e.procs == nil || e.ensureState() != nil {
		return
	}
	for s := range e.ring {
		slot := e.ring[s]
		var slab []Incoming
		for v := range slot {
			if cap(slot[v]) >= perRow {
				continue
			}
			if slab == nil {
				slab = make([]Incoming, 0, len(slot)*perRow)
			}
			row := slab[len(slab) : len(slab) : len(slab)+perRow]
			slab = slab[:len(slab)+perRow]
			slot[v] = append(row, slot[v]...)
		}
	}
}

// ReserveOutbox pre-sizes every per-(worker, destination-shard, delay)
// outbox bucket of the parallel engine to hold perBucket messages
// without growing. It is ReserveInbox's send-side twin: under a
// jittered delay model the per-bucket load is stochastic, so bucket
// capacities converge to their high-water marks only asymptotically
// and long runs keep paying rare amortized regrowth; a workload that
// knows a burst bound can reserve it up front and make warm parallel
// rounds strictly allocation-free. Size the bound in copies: a bucket
// entry is one copy. The reservation is remembered and re-applied when
// worker state is rebuilt (SetParallelism, topology growth). No-op
// before Attach; a pulling engine has no buckets.
func (e *Engine) ReserveOutbox(perBucket int) {
	if perBucket <= 0 || e.procs == nil {
		return
	}
	e.vtbReserve = perBucket
	if e.ensureState() == nil {
		e.applyOutboxReserve()
	}
}

// applyOutboxReserve carves each worker's outbox buckets out of one
// slab at the recorded per-bucket capacity (three-index slices, so a
// bucket overflowing its reservation regrows independently). Buckets
// already at or above the reservation are left alone.
func (e *Engine) applyOutboxReserve() {
	per := e.vtbReserve
	if per <= 0 {
		return
	}
	for _, ws := range e.ws {
		if ws.vtb == nil {
			continue
		}
		var slab []routed
		for i := range ws.vtb {
			if cap(ws.vtb[i]) >= per {
				continue
			}
			if slab == nil {
				slab = make([]routed, 0, len(ws.vtb)*per)
			}
			bucket := slab[len(slab) : len(slab) : len(slab)+per]
			slab = slab[:len(slab)+per]
			ws.vtb[i] = append(bucket, ws.vtb[i]...)
		}
	}
}

// SetParallelism sets the number of Step-shard workers used by Run.
// Values <= 1 select the serial engine. Parallel execution is
// deterministic and bit-identical to serial execution for any worker
// count: vertex ranges are stepped concurrently, every inbox is still
// assembled in ascending sender order (pulled from the senders'
// outboxes, or merged from per-shard buckets), and processes that share
// mutable state across vertices (see Sequential) are stepped on one
// goroutine in vertex order. Messages in flight survive the change.
func (e *Engine) SetParallelism(workers int) {
	if workers < 1 {
		workers = 1
	}
	e.workers = workers
	e.ws = nil // force rebuild on next Run
}

// Parallelism reports the configured worker count (1 = serial).
func (e *Engine) Parallelism() int {
	if e.workers < 1 {
		return 1
	}
	return e.workers
}

// Slots returns the engine's vertex-slot capacity (alive plus vacant).
func (e *Engine) Slots() int { return e.n }

// ID returns the node ID of vertex v.
func (e *Engine) ID(v int) NodeID { return e.ids[v] }

// Proc returns the process attached to vertex v (nil before Attach).
func (e *Engine) Proc(v int) Proc {
	if e.procs == nil {
		return nil
	}
	return e.procs[v]
}

// Metrics returns the measurements accumulated so far.
func (e *Engine) Metrics() Metrics { return e.metrics }

// ensureState builds (or rebuilds) the worker ranges and scratch used
// by Run, the send buffers, and, for an engine that pushes, the
// delivery ring and the outbox buckets. Serial mode uses ws[0] only.
// It builds nothing and returns a *RingBudgetError when the delay
// model's ring would exceed MaxRingBytes.
func (e *Engine) ensureState() error {
	if e.ws != nil {
		return nil
	}
	if e.delay != nil && !ringFits(e.delay.MaxDelay(), e.n) {
		return &RingBudgetError{Model: e.delay.Name(), MaxDelay: e.delay.MaxDelay(), Slots: e.n}
	}
	n := e.n
	w := e.Parallelism()
	if w > n && n > 0 {
		w = n
	}
	e.ranges = e.ranges[:0]
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		e.ranges = append(e.ranges, [2]int{lo, hi})
	}
	e.ws = make([]*workerState, w)
	for i := range e.ws {
		e.ws[i] = &workerState{}
	}
	e.carveScratch()
	e.pullMode = e.canPull()
	if e.pullMode {
		e.sparse = false
		return nil
	}
	e.ensureVT()
	if w > 1 {
		e.shardOf = make([]int32, n)
		for i, r := range e.ranges {
			for v := r[0]; v < r[1]; v++ {
				e.shardOf[v] = int32(i)
			}
		}
		for _, ws := range e.ws {
			ws.vtb = make([][]routed, w*(e.window-1))
		}
	}
	// Sparse stepping needs at least one marked proc to pay for itself;
	// rebuilding the bitsets from the ring here means messages in flight
	// across a reconfiguration (parallelism or capacity change) are
	// re-discovered, never stranded. The bitsets stay race-free by
	// ownership: a serial engine writes occupancy as it admits, and a
	// parallel one in the merge phase, where each worker owns exactly
	// its destination shard's words.
	e.sparse = e.hasTickDriven()
	if e.sparse {
		e.ensureOccupancy()
	}
	e.applyOutboxReserve()
	return nil
}

// ensureVT builds (or re-sizes after growth) the delivery state: the
// ring — window per-vertex inbox arrays — and, for models that draw,
// the per-sender stream tables (streams themselves derive lazily on
// first draw).
func (e *Engine) ensureVT() {
	w := 2
	if e.delay != nil {
		if d := e.delay.MaxDelay(); d >= 1 {
			w = d + 1
		}
	}
	e.window = w
	if len(e.ring) != w {
		e.ring = make([][][]Incoming, w)
	}
	for s := range e.ring {
		if e.ring[s] == nil {
			e.ring[s] = make([][]Incoming, e.n)
		}
		for len(e.ring[s]) < e.n {
			e.ring[s] = append(e.ring[s], nil)
		}
	}
	if e.delay != nil && e.delay.Draws() && len(e.delayRng) < e.n {
		grown := make([]*xrand.Rand, e.n)
		copy(grown, e.delayRng)
		e.delayRng = grown
	}
	if e.fault != nil && e.fault.Draws() && len(e.faultRng) < e.n {
		grown := make([]*xrand.Rand, e.n)
		copy(grown, e.faultRng)
		e.faultRng = grown
	}
}

// delayStream returns sender v's private latency stream, deriving it on
// first use (a pure function of the engine seed and v, so when it is
// derived changes nothing). Returns nil when the model never draws.
// Race-free in parallel rounds: v's entry is only touched by the worker
// owning v.
func (e *Engine) delayStream(v int) *xrand.Rand {
	if e.delayRng == nil {
		return nil
	}
	s := e.delayRng[v]
	if s == nil {
		s = e.root.SplitN("delay", v)
		e.delayRng[v] = s
	}
	return s
}

// faultStream is delayStream's fault-model counterpart.
func (e *Engine) faultStream(v int) *xrand.Rand {
	if e.faultRng == nil {
		return nil
	}
	s := e.faultRng[v]
	if s == nil {
		s = e.root.SplitN("fault", v)
		e.faultRng[v] = s
	}
	return s
}

// flushRound folds every worker's per-round accumulators into Metrics
// and returns this round's message count. All accumulators are integer
// sums or maxes over disjoint message sets, so totals are exact and
// independent of worker scheduling.
func (e *Engine) flushRound() int64 {
	var roundMsgs int64
	e.senders = 0
	for _, ws := range e.ws {
		roundMsgs += ws.messages
		e.senders += ws.senders
		ws.senders = 0
		e.metrics.Messages += ws.messages
		e.metrics.Bits += ws.bits
		e.metrics.Violations += ws.violations
		e.metrics.Capped += ws.capped
		e.metrics.Dropped += ws.dropped
		e.metrics.DelayClamped += ws.delayClamped
		if ws.maxMsgBits > e.metrics.MaxMsgBits {
			e.metrics.MaxMsgBits = ws.maxMsgBits
		}
		ws.messages, ws.bits, ws.violations, ws.capped, ws.dropped, ws.delayClamped, ws.maxMsgBits = 0, 0, 0, 0, 0, 0, 0
	}
	return roundMsgs
}

// startPool parks len(ranges) workers on their wake channels. Wake
// channels are engine-owned and reused across Runs (recreated only when
// the worker count changes), so restarting the pool costs one goroutine
// spawn per worker and nothing per round.
func (e *Engine) startPool() {
	if e.pool {
		return
	}
	w := len(e.ranges)
	if len(e.wake) != w {
		e.wake = make([]chan poolPhase, w)
		for i := range e.wake {
			e.wake[i] = make(chan poolPhase, 1)
		}
	}
	for i := 0; i < w; i++ {
		go e.poolWorker(i)
	}
	e.pool = true
}

// stopPool unwinds all pool workers and waits until they are gone.
func (e *Engine) stopPool() {
	if !e.pool {
		return
	}
	e.dispatch(phaseExit)
	e.pool = false
}

// dispatch publishes one phase to every worker and blocks until all have
// completed it. The channel send publishes e.round and everything the
// main goroutine wrote before the send; poolWG.Done/Wait publishes the
// workers' writes back. Nothing in here allocates.
func (e *Engine) dispatch(ph poolPhase) {
	e.poolWG.Add(len(e.wake))
	for _, ch := range e.wake {
		ch <- ph
	}
	e.poolWG.Wait()
}

// poolWorker is the body of pool worker i, which owns vertex range i
// during step phases and destination shard i during merge phases.
func (e *Engine) poolWorker(i int) {
	for ph := range e.wake[i] {
		switch ph {
		case phaseExit:
			e.poolWG.Done()
			return
		case phaseStep:
			e.stepRange(i)
		case phaseMergeVT:
			e.mergeShardVT(i)
		}
		e.poolWG.Done()
	}
}

// mergeShardVT drains every worker's buckets for destination shard s
// into the delivery ring — for each delay d into slot (tick+d) mod
// window, in worker order, which is ascending sender order. Because
// buckets are merged EVERY round rather than held until their delivery
// tick, each ring row accumulates its messages round-major,
// sender-major: exactly the order the serial walk appends them, so
// parallel delivery is byte-identical to serial. On a sparse engine it
// also sets each destination's occupancy bit and counts the messages,
// as deliverVT does on a serial one; shard s's words and counts are
// this worker's alone.
func (e *Engine) mergeShardVT(s int) {
	window := e.window
	span := window - 1
	lo := e.ranges[s][0]
	for d := 1; d < window; d++ {
		slot := (e.tick + d) % window
		box := e.ring[slot]
		idx := s*span + d - 1
		for i := range e.ranges {
			bucket := e.ws[i].vtb[idx]
			for _, m := range bucket {
				// Keep x[i] = append(x[i], ...) in place: no header store (see deliverVT).
				box[m.to] = append(box[m.to], Incoming{
					From:    int(m.from),
					FromID:  e.ids[m.from],
					Payload: m.payload,
				})
			}
			if e.sparse {
				occ := e.occ[s*window+slot]
				for _, m := range bucket {
					b := int(m.to) - lo
					occ[b>>6] |= 1 << (b & 63)
				}
				e.occCnt[s*window+slot] += int64(len(bucket))
			}
			e.ws[i].vtb[idx] = bucket[:0]
		}
	}
}

// roundVT executes one tick, serial or parallel, by pull or push: one
// call of the step walk on a serial engine, and on a parallel one this
// sequence:
//
//  1. Sequential pass — the coordinator steps every Sequential proc in
//     ascending vertex order (the serial mutation order among them) and
//     parks each output in seqOut (see stepSequential).
//  2. Step phase — each worker walks its contiguous vertex range in
//     ascending order (stepRange): every vertex, or on an engine with
//     TickDriven procs those that are round-driven or hold messages. A
//     pulling walk builds each inbox from the last tick's outboxes and
//     counts what is sent; a pushing walk admits it (deliverVT) into
//     per-(worker, destination-shard, delay) buckets. Admission and
//     counting are sender-local, so every decision is identical to the
//     serial engine's.
//  3. Merge phase (push only) — each worker owns a destination shard
//     and drains every worker's buckets into the ring in worker order
//     (see mergeShardVT for the ordering argument). A pull needs none:
//     receivers read only the last tick's outboxes and senders write
//     only this tick's (the outboxes are double-buffered).
//
// Metrics are worker-local sums/maxes flushed after the round. The net
// effect is byte-for-byte equivalence across worker counts, at zero
// heap allocations per steady-state round (see the pool fields). It
// reports the tick's halt verdict: no round-driven proc was live at
// the tick, and no TickDriven proc is live after it.
func (e *Engine) roundVT(r int) bool {
	e.round = r
	e.tick = e.metrics.Rounds
	e.vtr = e.resolveVT(e.tick)
	live := false
	if len(e.ranges) == 1 {
		e.stepRange(0)
	} else {
		if len(e.seq) > 0 {
			live = e.stepSequential(r)
		}
		e.dispatch(phaseStep)
		if !e.pullMode {
			e.dispatch(phaseMergeVT)
		}
	}
	e.pulled = e.pullMode
	for _, ws := range e.ws {
		live = live || ws.live
		e.tdLive -= ws.tdHalts
	}
	e.alwaysLive = live
	return !live && e.tdLive == 0
}

// stepSequential is the Sequential pass of a parallel round: it steps
// the Sequential procs on the calling goroutine, in ascending vertex
// order, and parks each output in seqOut[v] for the range worker owning
// v to admit in vertex order. On a sparse engine a TickDriven
// Sequential proc is stepped only when its row holds messages — a
// stale occupancy bit would earn it an empty Step in the serial walk,
// which the TickDriven contract makes a no-op. It reports whether it
// stepped a live proc without the marker, which the halt verdict
// reads, and applies TickDriven halts to tdLive directly.
func (e *Engine) stepSequential(r int) bool {
	if len(e.seqOut) < e.n {
		e.seqOut = make([][]Outgoing, e.n)
	}
	box := e.curBox()
	live := false
	for _, v := range e.seq {
		e.seqOut[v] = nil
		p := e.procs[v]
		if p == nil || p.Halted() {
			e.idle(v, box)
			continue
		}
		td := e.isTD[v]
		if td && e.sparse && len(box[v]) == 0 {
			continue
		}
		live = live || !td
		// The pool is parked, so the coordinator may pull into ws[0].
		e.seqOut[v] = e.step(e.ws[0], v, r, box, true)
		if td && p.Halted() {
			e.tdLive--
		}
	}
	return live
}

// Run executes up to maxRounds rounds and returns the number of rounds
// executed. The run ends early when the stop condition fires, or when
// every process has halted: after a round in which no process without
// the TickDriven marker was live and after which no marked one is, and
// whose between-rounds hook attached none (that round is not counted
// in the return value). Attach must have been called. A delay model
// whose delivery ring would exceed MaxRingBytes gets a
// *RingBudgetError before any of the ring is allocated.
func (e *Engine) Run(maxRounds int) (int, error) {
	if e.procs == nil {
		return 0, errors.New("sim: Run called before Attach")
	}
	if maxRounds < 0 {
		return 0, errors.New("sim: negative maxRounds")
	}
	// Growth between Run calls (AttachAt beyond capacity outside a hook,
	// or a hook that errored right after growing) leaves worker state
	// sized to the old capacity; rebuild before executing anything.
	if e.regrow {
		e.regrow = false
		e.ws = nil
	}
	// A configuration change since the last Run can move the engine
	// between pull and push, whose worker state differs; messages a
	// pull tick left in the outboxes then move to the ring, and so they
	// do when the topology changed since they were sent.
	if e.ws != nil && e.pullMode != e.canPull() {
		e.ws = nil
	}
	if err := e.ensureState(); err != nil {
		return 0, err
	}
	if e.pulled && (!e.pullMode || e.topo.Epoch() != e.curEpoch) {
		e.toPush()
	}
	if !e.pulled {
		e.ensureVT()
	}
	// Reserve the traffic series up front (rounded to a power of two,
	// bounded so a huge maxRounds with an early stop condition cannot
	// balloon memory) so appending inside the round loop never grows it
	// — the last per-round allocation the engine would otherwise make.
	const reserveCap = 1 << 16
	reserve := maxRounds
	if reserve > reserveCap {
		reserve = reserveCap
	}
	if need := len(e.metrics.MessagesByRound) + reserve; cap(e.metrics.MessagesByRound) < need {
		size := 1
		for size < need {
			size <<= 1
		}
		grown := make([]int64, len(e.metrics.MessagesByRound), size)
		copy(grown, e.metrics.MessagesByRound)
		e.metrics.MessagesByRound = grown
	}
	parallel := len(e.ranges) > 1
	if parallel {
		e.startPool()
	}
	defer e.stopPool()
	for r := 0; r < maxRounds; r++ {
		if e.cancel != nil {
			select {
			case <-e.cancel:
				return r, ErrCanceled
			default:
			}
		}
		e.curEpoch = e.topo.Epoch()
		// Fast-forward: an empty slot (an O(shards) occCnt reduction)
		// plus an all-TickDriven live population means executing this
		// tick would step nothing and deliver nothing — jump the virtual
		// clock instead, serial and parallel alike (a skipped parallel
		// tick bypasses the pool entirely; no phase is dispatched). A
		// between-rounds hook pins the dense cadence (it observes every
		// boundary), and the skipped tick's bookkeeping matches an
		// executed empty tick exactly, so transcripts and metrics (minus
		// TicksSkipped) are identical with skipping on or off.
		if e.sparse && e.skip && e.betweenRounds == nil &&
			e.occSlotEmpty(e.metrics.Rounds%e.window) && e.vtCanSkip() {
			e.metrics.Rounds++
			e.metrics.TicksSkipped++
			e.metrics.MessagesByRound = append(e.metrics.MessagesByRound, 0)
			if e.stop != nil && e.stop(r) {
				return r + 1, nil
			}
			continue
		}
		allHalted := e.roundVT(r)
		// The ring advances by tick index: the next tick's slot already
		// holds its pending messages.
		roundMsgs := e.flushRound()
		e.metrics.Rounds++
		e.metrics.MessagesByRound = append(e.metrics.MessagesByRound, roundMsgs)
		if e.betweenRounds != nil {
			e.hookAttached = false
			if err := e.betweenRounds(r); err != nil {
				return r + 1, err
			}
			// Freshly attached processes are owed a first Step; the round's
			// all-halted verdict predates them.
			if e.hookAttached {
				allHalted = false
			}
			if e.regrow {
				// The slot arrays grew: ranges, the shard map, and worker
				// scratch are sized to the old capacity. Rebuild them (and
				// the pool, whose workers cache range bounds) before the
				// next round.
				e.regrow = false
				e.stopPool()
				e.ws = nil
				if err := e.ensureState(); err != nil {
					return r + 1, err
				}
				parallel = len(e.ranges) > 1
				if parallel {
					e.startPool()
				}
			}
		}
		if allHalted {
			return r, nil
		}
		if e.stop != nil && e.stop(r) {
			return r + 1, nil
		}
	}
	return maxRounds, nil
}
