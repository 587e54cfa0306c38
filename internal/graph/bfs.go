package graph

// Unreachable is the distance value reported for vertices not reachable
// from the BFS source.
const Unreachable = -1

// BFS returns the distance from src to every vertex, with Unreachable (-1)
// for vertices in other components.
func (g *Graph) BFS(src int) []int {
	g.check(src)
	dist := make([]int, g.n)
	g.bfsInto(dist, src, g.n)
	return dist
}

// BFSLimited is BFS truncated at the given radius: vertices farther than
// radius keep distance Unreachable. It visits only the ball, so it is fast
// for small radii on large graphs.
func (g *Graph) BFSLimited(src, radius int) []int {
	g.check(src)
	if radius < 0 {
		panic("graph: negative radius")
	}
	dist := make([]int, g.n)
	g.bfsInto(dist, src, radius)
	return dist
}

// BFSInto runs BFS from src truncated at radius, writing distances into
// dist (which must have length N()) and returning it — the
// allocation-free counterpart of BFSLimited for callers that reuse the
// distance buffer across traversals. A radius >= N() is an untruncated
// BFS.
func (g *Graph) BFSInto(dist []int, src, radius int) []int {
	g.check(src)
	if radius < 0 {
		panic("graph: negative radius")
	}
	if len(dist) != g.n {
		panic("graph: BFSInto distance buffer length mismatch")
	}
	g.bfsInto(dist, src, radius)
	return dist
}

// bfsInto is the shared BFS core: dist is fully overwritten (Unreachable
// outside the radius-ball of src). The queue comes from the scratch pool,
// so the only allocation is the caller's dist buffer, if any.
func (g *Graph) bfsInto(dist []int, src, radius int) {
	v := g.view()
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	sc := getScratch(g.n)
	queue := append(sc.queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du == radius {
			continue
		}
		for _, w := range v.tgt[v.off[u]:v.off[u+1]] {
			if dist[w] == Unreachable {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	sc.queue = queue
	putScratch(sc)
}

// Distance returns the hop distance between u and v, or Unreachable.
func (g *Graph) Distance(u, v int) int {
	g.check(v)
	return g.BFS(u)[v]
}

// Ball returns the inclusive r-hop neighborhood B(u,r) of u, i.e. all
// vertices at distance <= r, in BFS order (u first). Only the ball is
// visited, so the cost is proportional to its size.
func (g *Graph) Ball(u, r int) []int {
	return g.AppendBall(nil, u, r)
}

// ballInto runs the radius-truncated ball BFS from u into the scratch's
// queue (discovery order, u first) and returns the queue, which the
// caller must store back via sc.queue before releasing the scratch.
func (g *Graph) ballInto(sc *scratch, u, r int) []int32 {
	if r < 0 {
		panic("graph: negative radius")
	}
	v := g.view()
	gen := sc.nextGen()
	sc.mark[u] = gen
	sc.dist[u] = 0
	queue := append(sc.queue[:0], int32(u))
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		dx := sc.dist[x]
		if int(dx) == r {
			continue
		}
		for _, w := range v.tgt[v.off[x]:v.off[x+1]] {
			if sc.mark[w] != gen {
				sc.mark[w] = gen
				sc.dist[w] = dx + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// AppendBall appends B(u,r) in BFS order (u first) to buf and returns the
// extended slice — the allocation-free counterpart of Ball. Visited
// bookkeeping lives in generation-stamped scratch arrays (the seed code
// allocated a map per call, which dominated placement and expansion
// sweeps), so with a reused buf at capacity the call allocates nothing.
func (g *Graph) AppendBall(buf []int, u, r int) []int {
	g.check(u)
	sc := getScratch(g.n)
	queue := g.ballInto(sc, u, r)
	for _, x := range queue {
		buf = append(buf, int(x))
	}
	sc.queue = queue
	putScratch(sc)
	return buf
}

// eccInto returns the maximum distance from u to any reachable vertex
// and whether all vertices were reachable, using the scratch's int32
// distance array.
func (g *Graph) eccInto(sc *scratch, u int) (ecc int, connected bool) {
	v := g.view()
	gen := sc.nextGen()
	sc.mark[u] = gen
	sc.dist[u] = 0
	queue := append(sc.queue[:0], int32(u))
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		dx := sc.dist[x]
		if int(dx) > ecc {
			ecc = int(dx)
		}
		for _, w := range v.tgt[v.off[x]:v.off[x+1]] {
			if sc.mark[w] != gen {
				sc.mark[w] = gen
				sc.dist[w] = dx + 1
				queue = append(queue, w)
			}
		}
	}
	connected = len(queue) == g.n
	sc.queue = queue
	return ecc, connected
}

// Diameter returns the exact diameter via all-pairs BFS. It returns
// ErrNotConnected for disconnected graphs. O(n*m); intended for the
// simulation sizes used in this repository. The result is memoized on
// the finalized graph (the value is a pure function of the topology), so
// repeated queries — e.g. the benign and attacked runs of one trial, or
// cache-shared substrates across trials — pay for the sweep once.
func (g *Graph) Diameter() (int, error) {
	v := g.view()
	v.diamOnce.Do(func() {
		v.diamVal, v.diamErr = g.diameter()
	})
	return v.diamVal, v.diamErr
}

func (g *Graph) diameter() (int, error) {
	if g.n == 0 {
		return 0, nil
	}
	sc := getScratch(g.n)
	defer putScratch(sc)
	diam := 0
	for u := 0; u < g.n; u++ {
		ecc, conn := g.eccInto(sc, u)
		if !conn {
			return 0, ErrNotConnected
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, nil
}

// ApproxDiameter returns a lower bound on the diameter computed with the
// double-sweep heuristic from the given start vertex: BFS to the farthest
// vertex, then BFS again from there. For expanders and trees the bound is
// exact or within a small constant. Disconnected graphs yield
// ErrNotConnected.
func (g *Graph) ApproxDiameter(start int) (int, error) {
	g.check(start)
	far, err := g.farthest(start)
	if err != nil {
		return 0, err
	}
	far2, err := g.farthest(far)
	if err != nil {
		return 0, err
	}
	return g.Distance(far, far2), nil
}

func (g *Graph) farthest(u int) (int, error) {
	dist := g.BFS(u)
	best, bestD := u, 0
	for v, d := range dist {
		if d == Unreachable {
			return 0, ErrNotConnected
		}
		if d > bestD {
			best, bestD = v, d
		}
	}
	return best, nil
}

// ConnectedComponents returns a component id per vertex and the number of
// components. Ids are assigned in order of lowest-numbered member.
func (g *Graph) ConnectedComponents() (comp []int, count int) {
	v := g.view()
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	sc := getScratch(g.n)
	for u := 0; u < g.n; u++ {
		if comp[u] != -1 {
			continue
		}
		comp[u] = count
		queue := append(sc.queue[:0], int32(u))
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, w := range v.tgt[v.off[x]:v.off[x+1]] {
				if comp[w] == -1 {
					comp[w] = count
					queue = append(queue, w)
				}
			}
		}
		sc.queue = queue
		count++
	}
	putScratch(sc)
	return comp, count
}

// IsConnected reports whether the graph has exactly one connected
// component. The empty graph counts as connected.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	_, c := g.ConnectedComponents()
	return c == 1
}
