package sim

// The round loop's hot path: devirtualized delay/fault dispatch, the
// walk of a tick, occupancy-tracked stepping, and the marker contract
// behind tick fast-forwarding.
//
// The installed DelayModel/FaultModel are type-switched ONCE per tick
// into a small plain-data dispatch record (vtRound) instead of being
// called per admitted message; the per-message loop then branches on an
// enum, draws no RNG at all for fixed-latency ticks (unit, post-GST,
// degenerate uniform, region with Near == Far), skips the fault stream
// entirely for drop p=0 / p=1 and for ticks outside the partition
// window, and hoists the per-sender stream lookups out of the message
// loop. Every inlined arm consumes exactly the draws the model's own
// Delay/Drop would, so transcripts are bit-identical to the interface
// path. Lockstep ticks of the paper's model on an engine without a
// hook, a capacity or a TickDriven proc skip admission altogether: they
// pull (see pull.go).
//
// Sparse stepping generalizes this from messages to ticks: on an
// engine with TickDriven procs each (shard, ring slot) pair keeps a
// bitset of the rows that may hold messages and their exact count, and
// each shard a bitset of its round-driven procs. The one walk
// (stepRange) steps every vertex of its range on an ordinary engine;
// on a sparse one it jumps, a 64-vertex word at a time, to the next
// vertex set in either bitset. Ascending bit order is vertex order, so
// nothing is sorted, and a tick scans O(n/64) words and steps only the
// delivered rows and round-driven procs. An all-empty tick is detected
// in O(shards), at which point the scheduler may fast-forward the
// virtual clock (see TickDriven). The bitsets are race-free by
// ownership: step worker i reads and clears only shard i's
// current-slot words, merge worker s sets only shard s's words, the
// two phases are barrier-separated, and no message can target the slot
// being delivered (delays are >= 1).

import (
	"math/bits"

	"byzcount/internal/xrand"
)

// TickDriven is an opt-in marker for processes that are strictly
// message-driven: a Step with an empty inbox must send nothing and
// change no observable state (Halted must not flip, and the proc must
// not touch its Env stream). Additionally, a TickDriven proc's Halted()
// may transition only during its own Step — never as a side effect of
// another process's Step.
//
// When every live process attached to a virtual-time engine is
// TickDriven, executing an empty tick is provably a no-op, so the
// scheduler — serial or sharded-parallel — jumps the virtual clock over
// it (counted in Metrics.TicksSkipped; Rounds and MessagesByRound
// advance as if the tick had run). The emptiness test is one occCnt
// load per shard. Round-driven processes — timers, beacon schedules,
// flood sources that broadcast unprompted — must NOT carry the marker:
// they are stepped on every tick, empty or not, and their presence
// disables fast-forwarding (but not sparse stepping) automatically.
type TickDriven interface {
	StepsOnMessagesOnly()
}

// Delay dispatch kinds, resolved once per tick by resolveVT. dkFixed
// covers every model arm that needs neither RNG nor per-message
// predicates: unit, any GST model at or past its stabilization tick,
// uniform with Min == Max, region with Near == Far.
const (
	dkFixed   uint8 = iota // constant latency d0; no draw
	dkUniform              // d0 + Intn(dSpan)
	dkGeo                  // GeometricCapped(dP, d1)
	dkRegion               // d0 within a region, d1 across (mod dRegions)
	dkIface                // unknown model: interface call + counted clamps
)

// Fault dispatch kinds. fkNone covers no model, drop p=0, and every
// tick outside a partition's [From, Heal) window — the per-tick
// partition predicate is evaluated here, once, not per message.
const (
	fkNone      uint8 = iota // nothing can drop this tick
	fkDrop                   // Bernoulli(fP) on the sender's fault stream
	fkDropAll                // drop p>=1: every message lost, no draw
	fkPartition              // cross-group loss (mod fGroups), no draw
	fkIface                  // unknown model: interface call
)

// vtRound is one tick's devirtualized model dispatch: plain data, no
// interface values, rebuilt each tick (GST and partition windows make
// the resolution tick-dependent). needD/needF gate the per-vertex
// stream hoists so non-drawing ticks never derive streams.
type vtRound struct {
	dk, fk       uint8
	needD, needF bool
	d0, d1       int     // fixed/min/near; cap/far
	dSpan        int     // uniform: Max-Min+1
	dRegions     int     // region: group modulus
	dP           float64 // geo: stop probability
	fGroups      int     // partition: group modulus
	fP           float64 // drop: loss probability
}

// resolveVT type-switches the installed models into tick t's dispatch
// record. Built-in models with parameters inside the validated ranges
// (what ParseDelayModel/ParseFaultModel emit) get inlined arms; anything
// else — custom models, hand-built structs with out-of-range fields —
// falls back to the interface arm, which preserves the PR-7 semantics
// exactly (including latency clamping, now counted in
// Metrics.DelayClamped instead of silent).
func (e *Engine) resolveVT(tick int) vtRound {
	r := vtRound{dk: dkFixed, d0: 1, fk: fkNone}
	w := e.window
	m := e.delay
	// A GST model is its inner model before the stabilization tick and
	// the unit model after it; the inner stream must advance only before
	// GST, which unwrapping here (instead of per message) guarantees.
	for {
		g, ok := m.(GSTDelay)
		if !ok {
			break
		}
		if tick >= g.GST {
			m = UnitDelay{}
		} else {
			m = g.Inner
		}
	}
	switch d := m.(type) {
	case nil, UnitDelay:
		// dkFixed, d0 = 1
	case UniformDelay:
		switch {
		case d.Min < 1 || d.Max < d.Min || d.Max >= w:
			r.dk = dkIface
		case d.Max == d.Min:
			r.d0 = d.Min // degenerate interval: no draw, like the model
		default:
			r.dk, r.d0, r.dSpan = dkUniform, d.Min, d.Max-d.Min+1
		}
	case GeometricDelay:
		if d.P > 0 && d.P <= 1 && d.Cap >= 1 && d.Cap < w {
			r.dk, r.dP, r.d1 = dkGeo, d.P, d.Cap
		} else {
			r.dk = dkIface
		}
	case RegionDelay:
		switch {
		case d.Regions < 1 || d.Near < 1 || d.Near >= w || d.Far < 1 || d.Far >= w:
			r.dk = dkIface
		case d.Near == d.Far:
			r.d0 = d.Near
		default:
			r.dk, r.dRegions, r.d0, r.d1 = dkRegion, d.Regions, d.Near, d.Far
		}
	default:
		r.dk = dkIface
	}
	switch f := e.fault.(type) {
	case nil:
	case DropFault:
		switch {
		case f.P <= 0:
			// fkNone: nothing to draw — the verdict is known. The fault
			// stream is private to fault verdicts, so not advancing it
			// is unobservable.
		case f.P >= 1:
			r.fk = fkDropAll
		default:
			r.fk, r.fP = fkDrop, f.P
		}
	case PartitionFault:
		switch {
		case tick < f.From || (f.Heal > 0 && tick >= f.Heal):
			// fkNone: outside the partition window.
		case f.Groups >= 1:
			r.fk, r.fGroups = fkPartition, f.Groups
		default:
			r.fk = fkIface
		}
	default:
		r.fk = fkIface
	}
	r.needD = r.dk == dkUniform || r.dk == dkGeo || r.dk == dkIface
	r.needF = r.fk == fkDrop || r.fk == fkIface
	return r
}

// deliverVT admits and schedules one sender's outgoing messages on a
// tick that pushes: into the ring on a serial engine, and on a parallel
// one into the worker's per-(destination-shard, delay) buckets, which
// the merge phase drains into the ring in sender order. An
// AllNeighbors entry expands in place over the sender's incident edges,
// in Neighbors order (one SizeBits call per entry, no neighbor check);
// a unicast entry passes the neighbor check and is a one-element target
// list. Every copy of either kind runs one per-edge pipeline —
//
//	capacity budget -> fault verdict -> latency draw
//
// — so a faulted message has spent the edge but is counted in Dropped,
// not Messages, and does not advance the latency stream. Every stage is
// sender-local, so each decision is identical however vertices are
// scheduled; the tick's dispatch record e.vtr is read-only meanwhile.
// The admission logic is hand-inlined: this is the engine's hot path.
func (e *Engine) deliverVT(ws *workerState, v int, out []Outgoing) {
	if len(out) == 0 {
		return
	}
	n := e.n
	tick, window := e.tick, e.window
	span := window - 1
	// base+d is the copy's slot (tick+d) mod window, less one window
	// when it wraps: 1 <= d < window, so no division per copy.
	base := tick % window
	vtr := e.vtr
	capBits := e.edgeCapBits
	if capBits > 0 && ws.budget == nil {
		ws.budget = make([]int, n)
		ws.budgetGen = make([]uint64, n)
	}
	ws.gen++
	gen := ws.gen
	nbrMark := e.unicastMarks(ws, v, out)
	nbrs := e.envs[v].Neighbors
	fromID := e.ids[v]
	perNodeMax := e.metrics.PerNodeMaxBit
	maxSent := perNodeMax[v]
	// A serial sparse engine marks each delivery in its one shard's
	// occupancy (a parallel one does in the merge).
	sparse := e.sparse
	bucketed := len(e.ranges) > 1
	// A lockstep tick that pushes (churn, or past a GST) on a serial
	// engine without a capacity or TickDriven procs puts each entry's
	// copies straight into the one destination slot: through the
	// per-copy pipeline below the churn experiments took about a fifth
	// more CPU.
	var lockstep [][]Incoming
	if vtr.dk == dkFixed && vtr.fk == fkNone && capBits == 0 && !bucketed && !sparse {
		lockstep = e.ring[(tick+vtr.d0)%window]
	}
	var dRng, fRng *xrand.Rand
	if vtr.needD {
		dRng = e.delayStream(v)
	}
	if vtr.needF {
		fRng = e.faultStream(v)
	}
	var one [1]int
	var msgs, totalBits, clamped int64
	for _, msg := range out {
		payload := msg.Payload
		targets := nbrs
		if to := msg.To; to != AllNeighbors {
			if uint(to) >= uint(n) || nbrMark[to] != gen {
				ws.violations++
				continue
			}
			one[0] = to
			targets = one[:]
		}
		bits := 0
		if payload != nil {
			bits = payload.SizeBits()
		}
		if lockstep != nil {
			in := Incoming{From: v, FromID: fromID, Payload: payload}
			for _, to := range targets {
				// In place: no header store (see below).
				lockstep[to] = append(lockstep[to], in)
			}
			if len(targets) > 0 {
				msgs += int64(len(targets))
				totalBits += int64(len(targets)) * int64(bits)
				ws.maxMsgBits = max(ws.maxMsgBits, bits)
				maxSent = max(maxSent, bits)
			}
			continue
		}
		for _, to := range targets {
			if capBits > 0 {
				if ws.budgetGen[to] != gen {
					ws.budgetGen[to] = gen
					ws.budget[to] = 0
				}
				if ws.budget[to]+bits > capBits {
					ws.capped++
					continue
				}
				ws.budget[to] += bits
			}
			switch vtr.fk {
			case fkNone:
			case fkPartition:
				if v%vtr.fGroups != to%vtr.fGroups {
					ws.dropped++
					continue
				}
			case fkDrop:
				if fRng.Bernoulli(vtr.fP) {
					ws.dropped++
					continue
				}
			case fkDropAll:
				ws.dropped++
				continue
			default:
				if e.fault.Drop(fRng, tick, v, to) {
					ws.dropped++
					continue
				}
			}
			var d int
			switch vtr.dk {
			case dkFixed:
				d = vtr.d0
			case dkUniform:
				d = vtr.d0 + dRng.Intn(vtr.dSpan)
			case dkGeo:
				d = dRng.GeometricCapped(vtr.dP, vtr.d1)
			case dkRegion:
				if v%vtr.dRegions == to%vtr.dRegions {
					d = vtr.d0
				} else {
					d = vtr.d1
				}
			default:
				d = e.delay.Delay(dRng, tick, v, to)
				if d < 1 {
					d = 1
					clamped++
				} else if d >= window {
					d = window - 1
					clamped++
				}
			}
			msgs++
			totalBits += int64(bits)
			if bits > ws.maxMsgBits {
				ws.maxMsgBits = bits
			}
			if bits > maxSent {
				maxSent = bits
			}
			if bucketed {
				idx := int(e.shardOf[to])*span + d - 1
				ws.vtb[idx] = append(ws.vtb[idx], routed{to: int32(to), from: int32(v), payload: payload})
				continue
			}
			si := base + d
			if si >= window {
				si -= window
			}
			dst := e.ring[si]
			if sparse {
				e.occ[si][to>>6] |= 1 << (to & 63)
				e.occCnt[si]++
			}
			// Keep the in-place form x[i] = append(x[i], ...): it stores
			// only the row's new length unless the row grows. Appending
			// to a local copy and storing it back writes the whole slice
			// header, pointer included, under the GC write barrier on
			// every message.
			dst[to] = append(dst[to], Incoming{From: v, FromID: fromID, Payload: payload})
		}
	}
	ws.delayClamped += clamped
	ws.messages += msgs
	ws.bits += totalBits
	perNodeMax[v] = maxSent
}

// unicastMarks returns ws.nbrMark with sender v's distinct neighbors
// stamped at the current sender generation when out holds a unicast
// entry, making each unicast destination check one load, and nil when
// out holds only broadcasts: their targets are v's own adjacency, so
// broadcast-only senders (every honest sender of the paper's two
// algorithms) skip the O(degree) stamp, and a worker that never admits
// a unicast never allocates the array.
func (e *Engine) unicastMarks(ws *workerState, v int, out []Outgoing) []uint64 {
	for i := range out {
		if out[i].To != AllNeighbors {
			if ws.nbrMark == nil {
				ws.nbrMark = make([]uint64, e.n)
			}
			for _, w := range e.sortedAdj[v] {
				ws.nbrMark[w] = ws.gen
			}
			return ws.nbrMark
		}
	}
	return nil
}

// step steps live vertex v at this tick on its inbox — its row of box,
// emptied for the slot's next use, or with box nil a pull from its
// neighbors' outboxes, or nothing when pull is false (no neighbor
// sent) — and records the output as v's outbox of the tick's parity,
// where a pull reads it next tick.
func (e *Engine) step(ws *workerState, v, r int, box [][]Incoming, pull bool) []Outgoing {
	if e.epochOf[v] != e.curEpoch {
		e.catchUpVertex(v)
	}
	par := e.tick & 1
	var in []Incoming
	if box != nil {
		in = box[v]
		box[v] = in[:0]
	} else if pull {
		in = e.pull(ws, v, par^1)
	}
	env := &e.envs[v]
	env.par = uint8(par)
	out := e.procs[v].Step(env, r, in)
	ob, b := &env.scratch[par], &e.bcast[par][v]
	switch {
	case len(out) == 0:
		*ob = (*ob)[:0]
		b.From = outEmpty
		return out
	case cap(out) == cap(*ob) && &out[:1][0] == &(*ob)[:1][0]:
		*ob = (*ob)[:len(out)] // the scratch buffer itself: no pointer store
	default:
		*ob = out
	}
	if len(out) == 1 && out[0].To == AllNeighbors {
		*b = Incoming{From: v, FromID: e.ids[v], Payload: out[0].Payload}
	} else {
		b.From = outMixed
	}
	return out
}

// idle records that vertex v, not stepped this tick, sends nothing,
// and drops what box holds for it.
func (e *Engine) idle(v int, box [][]Incoming) {
	par := e.tick & 1
	e.envs[v].scratch[par] = e.envs[v].scratch[par][:0]
	e.bcast[par][v].From = outEmpty
	if box != nil {
		box[v] = box[v][:0]
	}
}

// vtCanSkip reports whether fast-forwarding over an empty tick is a
// provable no-op: at least one live TickDriven proc remains (otherwise
// the round would end the run via the all-halted return, which a skip
// must not preempt), and no live round-driven proc does (each would be
// owed a Step). The always bitsets are scanned, up to the first live
// proc, only while alwaysLive says one may remain.
func (e *Engine) vtCanSkip() bool {
	if e.tdLive == 0 {
		return false
	}
	if e.alwaysLive {
		e.alwaysLive = e.anyLiveAlways()
	}
	return !e.alwaysLive
}

// anyLiveAlways reports whether a proc set in the always bitsets has
// not halted.
func (e *Engine) anyLiveAlways() bool {
	for s, words := range e.always {
		for k, word := range words {
			for ; word != 0; word &= word - 1 {
				if !e.procs[e.ranges[s][0]+k<<6+bits.TrailingZeros64(word)].Halted() {
					return true
				}
			}
		}
	}
	return false
}

// shardBit returns the shard owning vertex v and v's bit in that
// shard's bitsets. ok is false for a vertex past the ranges: growth in
// a between-rounds hook leaves those until the rebuild, which recounts
// the bitsets from the procs and the ring.
func (e *Engine) shardBit(v int) (s, b int, ok bool) {
	if len(e.ranges) == 0 || v >= e.ranges[len(e.ranges)-1][1] {
		return 0, 0, false
	}
	if len(e.ranges) > 1 {
		s = int(e.shardOf[v])
	}
	return s, v - e.ranges[s][0], true
}

// setAlways brings v's always bit up to date after a membership change
// on a sparse engine: set while v holds a proc without the TickDriven
// marker.
func (e *Engine) setAlways(v int) {
	if !e.sparse {
		return
	}
	s, b, ok := e.shardBit(v)
	if !ok {
		return
	}
	if word, bit := &e.always[s][b>>6], uint64(1)<<(b&63); e.procs[v] != nil && !e.isTD[v] {
		*word |= bit
	} else {
		*word &^= bit
	}
}

// dropPending empties v's ring rows — a leaver never sees the messages
// pending for it, nor a joiner those sent before it joined — keeping
// the pending counts exact. The occupancy bits stay set: a stale bit
// costs v an empty Step, which the TickDriven contract makes a no-op.
func (e *Engine) dropPending(v int) {
	for slot := range e.ring {
		row := e.ring[slot][v]
		if len(row) == 0 {
			continue
		}
		if e.sparse {
			if s, _, ok := e.shardBit(v); ok {
				e.occCnt[s*e.window+slot] -= int64(len(row))
			}
		}
		e.ring[slot][v] = row[:0]
	}
}

// occSlotEmpty reports whether ring slot `slot` holds no pending
// messages in any shard — the all-empty-tick test behind fast-forward,
// an O(shards) reduction over the shard-major counts.
func (e *Engine) occSlotEmpty(slot int) bool {
	for idx := slot; idx < len(e.occCnt); idx += e.window {
		if e.occCnt[idx] != 0 {
			return false
		}
	}
	return true
}

// ensureOccupancy (re)builds the per-shard bitsets and the pending
// counts from the procs and the ring's ground truth. ensureState calls
// it whenever it enables sparse stepping, so messages left in flight
// across a parallelism or capacity change are re-discovered rather than
// stranded, under whichever shard now owns their destination. Each
// shard's words sit together: its always bitset, then one occupancy
// bitset per ring slot.
func (e *Engine) ensureOccupancy() {
	w := e.window
	words := 0
	for _, r := range e.ranges {
		words += (r[1] - r[0] + 63) >> 6
	}
	slab := make([]uint64, words*(w+1))
	e.always = make([][]uint64, len(e.ranges))
	e.occ = make([][]uint64, len(e.ranges)*w)
	e.occCnt = make([]int64, len(e.ranges)*w)
	for s, r := range e.ranges {
		k := (r[1] - r[0] + 63) >> 6
		e.always[s], slab = slab[:k:k], slab[k:]
		for slot := 0; slot < w; slot++ {
			e.occ[s*w+slot], slab = slab[:k:k], slab[k:]
		}
	}
	for v := range e.procs {
		e.setAlways(v)
	}
	for slot, box := range e.ring {
		for v, row := range box {
			if len(row) > 0 {
				s, b, _ := e.shardBit(v)
				e.occ[s*w+slot][b>>6] |= 1 << (b & 63)
				e.occCnt[s*w+slot] += int64(len(row))
			}
		}
	}
}

// hasTickDriven reports whether any attached proc carries the marker.
func (e *Engine) hasTickDriven() bool {
	for v := range e.isTD {
		if e.isTD[v] && e.procs[v] != nil {
			return true
		}
	}
	return false
}

// SetTickSkip enables or disables virtual-tick fast-forwarding (default
// on). Skipping never changes transcripts or metrics other than
// Metrics.TicksSkipped — it elides ticks that are provable no-ops — so
// the toggle exists for A/B measurement and paranoia, not semantics.
func (e *Engine) SetTickSkip(on bool) { e.skip = on }

// stepRange is the walk of one tick over range i (the whole slot space
// on a serial engine), in ascending vertex order: every vertex of an
// ordinary engine, and on a sparse one those set in always or in the
// tick's occupancy (see nextSparse), whose words it clears after the
// last vertex (nextSparse reads them until then). It steps each live
// vertex visited — taking the coordinator's output for Sequential
// vertices of a parallel engine — and pulls its inbox (see
// pullScope) and counts what it sends, or, on an engine that pushes,
// takes the inbox from the ring and admits the output (see deliverVT).
// For the halt verdict it notes whether it stepped a live proc without
// the TickDriven marker, and counts the marked ones that halt in their
// Step. Every vertex is owned by exactly one goroutine per tick, so its
// inbox row, env, proc and PerNodeMaxBit entry are touched race-free.
func (e *Engine) stepRange(i int) {
	ws := e.ws[i]
	box := e.curBox()
	scope := pullAll
	if box == nil {
		scope = e.pullScope(i)
	}
	seq := len(e.seq) > 0 && len(e.ranges) > 1
	lo, hi := e.ranges[i][0], e.ranges[i][1]
	if e.sparse {
		idx := i*e.window + e.tick%e.window
		ws.always, ws.occ = e.always[i], e.occ[idx]
		e.occCnt[idx] = 0
	}
	ws.live, ws.tdHalts = false, 0
	// The walk counts v up and a sparse engine jumps it forward: taking
	// every vertex from the bits of an all-ones word instead, with the
	// word carried through each Step call, made the dense
	// engine/vt-skip/token/full lane 1.16x slower (median of 12
	// interleaved -cpu 1 runs, 2-core VM, go1.24).
	for v := lo; v < hi; v++ {
		if e.sparse {
			if v = ws.nextSparse(lo, hi, v); v == hi {
				break
			}
		}
		var out []Outgoing
		switch p := e.procs[v]; {
		case seq && e.isSeq[v]:
			out = e.seqOut[v]
		case p == nil || p.Halted():
			e.idle(v, box)
		case e.tdLive > 0 && e.isTD[v]:
			out = e.step(ws, v, e.round, box, scope == pullAll || scope == pullMarked && e.mail[v])
			if p.Halted() {
				ws.tdHalts++
			}
		default:
			ws.live = true
			out = e.step(ws, v, e.round, box, scope == pullAll || scope == pullMarked && e.mail[v])
		}
		if scope == pullMarked {
			e.mail[v] = false
		}
		switch {
		case len(out) == 0:
		case e.pullMode:
			e.countSent(ws, v, out)
		default:
			e.deliverVT(ws, v, out)
		}
	}
	if e.sparse {
		clear(ws.occ)
	}
}

// nextSparse returns the first vertex at or after v, of the range
// [lo, hi) the worker walks, whose bit is set in its always or
// occupancy words, or hi if none is: ascending bit order is vertex
// order, so the walk needs no sort.
func (ws *workerState) nextSparse(lo, hi, v int) int {
	for b := v - lo; b < hi-lo; b = b | 63 + 1 {
		if word := (ws.always[b>>6] | ws.occ[b>>6]) >> (b & 63); word != 0 {
			return lo + b + bits.TrailingZeros64(word)
		}
	}
	return hi
}
