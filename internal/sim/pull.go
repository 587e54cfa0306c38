package sim

// Pull delivery: the dense half of direction-optimizing traversal
// (Beamer, Asanović and Patterson, SC 2012). On a lockstep tick every
// message arrives next tick, so instead of pushing each copy into its
// destination's ring row, a sender's output stays in its own outbox
// (Env.scratch, one per tick parity) and each receiver, just before its
// Step, copies what its neighbors sent at the last tick. A receiver
// walks its sorted adjacency, so senders arrive in ascending order, and
// each sender's entries in output order: the inbox push would have
// built. Serial and parallel ticks are the same walk over one range or
// several, with no ring, no buckets and no merge phase. Pull relies on
// the adjacency being symmetric, as an undirected network's is: w lists
// v as often as v lists w.

import "slices"

// canPull reports whether ticks can be delivered by pull: unit latency
// and no fault model (every copy arrives next tick), no edge capacity
// (its budget is per copy) and no between-rounds hook (it may change
// the adjacency between a send and its pull).
func (e *Engine) canPull() bool {
	_, unit := e.delay.(UnitDelay)
	return (e.delay == nil || unit) && e.fault == nil && e.edgeCapBits == 0 &&
		e.betweenRounds == nil
}

// curBox returns the ring slot holding this tick's inboxes, or nil when
// they wait in the senders' outboxes for a pull.
func (e *Engine) curBox() [][]Incoming {
	if e.pullMode && e.pulled {
		return nil
	}
	return e.ring[e.tick%e.window]
}

// Engine.bcast markers: the output is empty, or it needs the outbox
// walk (anything but one AllNeighbors entry).
const (
	outEmpty = -1
	outMixed = -2
)

// Pull scopes: which receivers of a range pull on a tick (see
// pullScope).
const (
	pullNone   = iota // nobody sent last tick
	pullMarked        // receivers marked in mail
	pullAll
)

// pullScope returns which of range i's receivers pull this tick, from
// the number of vertices that sent at the last one: none when nobody
// did, all when at least a quarter did, and otherwise those with a
// sending neighbor, which it marks in mail by walking the senders'
// neighbor lists. A pull costs a check per arc whatever the traffic,
// and the protocols' ticks are mostly nearly silent or nearly full:
// on E6 about 88% of ticks had under a tenth of the vertices sending
// and 12% at least nine tenths, and on the 160k-node scale cell 10
// and 15 of 28 ticks.
func (e *Engine) pullScope(i int) int {
	switch {
	case e.senders == 0:
		return pullNone
	case 4*e.senders >= e.n:
		return pullAll
	}
	lo, hi := e.ranges[i][0], e.ranges[i][1]
	for w, b := range e.bcast[(e.tick-1)&1] {
		if b.From == outEmpty {
			continue
		}
		for _, u := range e.envs[w].Neighbors {
			if u >= lo && u < hi {
				e.mail[u] = true
			}
		}
	}
	return pullMarked
}

// pull builds v's inbox in ws.in from its neighbors' outputs of the
// last tick (outbox parity par): each neighbor's broadcasts and its
// unicasts to v, one copy each. A vertex that lists a neighbor more
// than once takes pullMulti instead, flagged once when its adjacency is
// resolved; checking multiplicity on every vertex made the walk slower
// than push.
func (e *Engine) pull(ws *workerState, v, par int) []Incoming {
	if e.multi[v] {
		return e.pullMulti(ws, v, par)
	}
	in := ws.in[:0]
	bcast := e.bcast[par]
	for _, w := range e.sortedAdj[v] {
		if b := &bcast[w]; b.From >= 0 {
			in = append(in, *b)
		} else if b.From == outMixed {
			for _, m := range e.envs[w].scratch[par] {
				if m.To == AllNeighbors || m.To == v {
					in = append(in, Incoming{From: int(w), FromID: e.ids[w], Payload: m.Payload})
				}
			}
		}
	}
	ws.in = in
	return in
}

// pullMulti is pull for a vertex with parallel edges (a graph lists a
// self-loop twice), whose sorted multiset lists a neighbor once per
// edge. A broadcast crosses every edge between its sender and v, so it
// arrives once per edge, the copies adjacent as push appends them (e1,
// e1, e2, not e1, e2, e1); a unicast arrives once.
func (e *Engine) pullMulti(ws *workerState, v, par int) []Incoming {
	in := ws.in[:0]
	bcast := e.bcast[par]
	sa := e.sortedAdj[v]
	for i := 0; i < len(sa); {
		w := sa[i]
		edges := 1
		for i+edges < len(sa) && sa[i+edges] == w {
			edges++
		}
		i += edges
		switch b := &bcast[w]; b.From {
		case outEmpty:
		case outMixed:
			for _, m := range e.envs[w].scratch[par] {
				copies := edges
				if m.To != AllNeighbors {
					copies = 0
					if m.To == v {
						copies = 1
					}
				}
				for ; copies > 0; copies-- {
					in = append(in, Incoming{From: int(w), FromID: e.ids[w], Payload: m.Payload})
				}
			}
		default:
			for range edges {
				in = append(in, *b)
			}
		}
	}
	ws.in = in
	return in
}

// countSent counts vertex v's output of a pull tick at the sender, once
// per entry: an AllNeighbors entry is one message per incident edge, a
// unicast to a neighbor one message, and a unicast to anything else a
// violation, which stays in the outbox where no pull matches it.
func (e *Engine) countSent(ws *workerState, v int, out []Outgoing) {
	if len(out) == 0 {
		return
	}
	ws.senders++
	ws.gen++
	nbrMark := e.unicastMarks(ws, v, out)
	degree := int64(len(e.envs[v].Neighbors))
	maxSent := e.metrics.PerNodeMaxBit[v]
	for _, m := range out {
		copies := degree
		if m.To != AllNeighbors {
			if uint(m.To) >= uint(e.n) || nbrMark[m.To] != ws.gen {
				ws.violations++
				continue
			}
			copies = 1
		}
		if copies == 0 {
			continue
		}
		bits := 0
		if m.Payload != nil {
			bits = m.Payload.SizeBits()
		}
		ws.messages += copies
		ws.bits += copies * int64(bits)
		ws.maxMsgBits = max(ws.maxMsgBits, bits)
		maxSent = max(maxSent, bits)
	}
	e.metrics.PerNodeMaxBit[v] = maxSent
}

// toPush moves the messages the last pull tick left in the outboxes
// into the ring, for a change after which push must deliver them: a
// delivery configuration that pushes, a membership change, a topology
// epoch. Each copy lands in its destination's row for the next tick in
// the order push appends it — senders ascending, entries in order, a
// broadcast in Neighbors order. They were counted when sent, so
// nothing is counted here.
func (e *Engine) toPush() {
	if !e.pulled {
		return
	}
	e.pulled = false
	e.ensureVT()
	box := e.ring[e.metrics.Rounds%e.window]
	par := (e.metrics.Rounds - 1) & 1
	for v := range e.envs {
		in := Incoming{From: v, FromID: e.ids[v]}
		for _, m := range e.envs[v].scratch[par] {
			in.Payload = m.Payload
			if m.To == AllNeighbors {
				for _, to := range e.envs[v].Neighbors {
					box[to] = append(box[to], in)
				}
			} else if _, ok := slices.BinarySearch(e.sortedAdj[v], int32(m.To)); ok && uint(m.To) < uint(e.n) {
				box[m.To] = append(box[m.To], in)
			}
		}
	}
}

// carveScratch gives each attached vertex that has no send buffers
// yet a one-entry buffer per tick parity, all carved from one slab: a
// broadcast is one entry, so that is a flood's whole send side, for a
// constant number of allocations instead of two per vertex.
func (e *Engine) carveScratch() {
	bare := func(v int) bool {
		return e.procs[v] != nil && cap(e.envs[v].scratch[0])+cap(e.envs[v].scratch[1]) == 0
	}
	count := 0
	for v := range e.procs {
		if bare(v) {
			count++
		}
	}
	s := newSlab[Outgoing](2 * count)
	for v := range e.procs {
		if bare(v) {
			e.envs[v].scratch = [2][]Outgoing{s.carve(1), s.carve(1)}
		}
	}
}
