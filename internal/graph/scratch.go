package graph

import "sync"

// scratch is the shared per-traversal workspace of the structural tools:
// a generation-stamped mark array (membership / visited checks become one
// compare, and clearing is a generation bump instead of an O(n) wipe), a
// distance array valid only where mark matches the current generation,
// and a reusable BFS queue. Tools borrow one from a package pool for the
// duration of a call, so steady-state traversals allocate nothing even
// when one immutable graph is shared across concurrent trials (each
// caller holds a private scratch).
type scratch struct {
	mark  []uint32
	dist  []int32
	queue []int32
	gen   uint32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch borrows a scratch sized for n vertices.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.mark) < n {
		sc.mark = make([]uint32, n)
		sc.dist = make([]int32, n)
		sc.gen = 0
	}
	sc.mark = sc.mark[:cap(sc.mark)]
	sc.dist = sc.dist[:cap(sc.dist)]
	if sc.queue == nil {
		sc.queue = make([]int32, 0, n)
	}
	return sc
}

// putScratch returns a scratch to the pool.
func putScratch(sc *scratch) {
	sc.queue = sc.queue[:0]
	scratchPool.Put(sc)
}

// nextGen starts a fresh traversal: all previous marks become stale in
// O(1). On the (rare — IsSimple alone burns n generations per call)
// counter wrap the mark array is wiped once.
func (sc *scratch) nextGen() uint32 {
	sc.gen++
	if sc.gen == 0 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.gen = 1
	}
	return sc.gen
}
