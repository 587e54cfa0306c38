package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a1 := root.Split("graph")
	// Consuming from one split must not perturb a sibling split.
	for i := 0; i < 57; i++ {
		a1.Uint64()
	}
	b1 := root.Split("coins")
	root2 := New(7)
	b2 := root2.Split("coins")
	for i := 0; i < 100; i++ {
		if b1.Uint64() != b2.Uint64() {
			t.Fatalf("split stream affected by sibling consumption at draw %d", i)
		}
	}
}

func TestSplitLabelsDistinct(t *testing.T) {
	root := New(7)
	a := root.Split("alpha")
	b := root.Split("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct labels produced %d/100 identical draws", same)
	}
}

func TestSplitNDistinct(t *testing.T) {
	root := New(3)
	a := root.SplitN("trial", 0)
	b := root.SplitN("trial", 1)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("SplitN indices 0 and 1 produced identical streams")
	}
}

// TestSplitNMatchesNestedSplit pins SplitN's pure seed derivation to
// its definition: every (label, n) stream must be byte-identical to
// Split(label).Split(itoa(n)). All golden tables stand on this — SplitN
// skips materializing the intermediate stream, and the shortcut must
// never drift from the nested form.
func TestSplitNMatchesNestedSplit(t *testing.T) {
	root := New(42)
	for _, label := range []string{"node", "trial", ""} {
		for _, n := range []int{0, 1, 7, -3, 1_000_000} {
			fast := root.SplitN(label, n)
			slow := root.Split(label).Split(itoa(n))
			if fast.Seed() != slow.Seed() {
				t.Fatalf("SplitN(%q, %d) seed %d != nested split seed %d",
					label, n, fast.Seed(), slow.Seed())
			}
			for i := 0; i < 8; i++ {
				if f, s := fast.Uint64(), slow.Uint64(); f != s {
					t.Fatalf("SplitN(%q, %d) draw %d: %d != %d", label, n, i, f, s)
				}
			}
		}
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(99)
	const trials = 20000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.02 {
			t.Errorf("Bernoulli(%g): observed frequency %g", p, got)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(5)
	const trials = 20000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += r.Geometric()
	}
	mean := float64(sum) / trials
	// E[Geometric(1/2)] = 2.
	if mean < 1.9 || mean > 2.1 {
		t.Fatalf("Geometric mean = %g, want ~2", mean)
	}
}

func TestGeometricSupport(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		if g := r.Geometric(); g < 1 {
			t.Fatalf("Geometric returned %d < 1", g)
		}
	}
}

func TestGeometricPMean(t *testing.T) {
	r := New(6)
	const trials = 40000
	for _, p := range []float64{0.25, 0.5, 0.8} {
		sum := 0
		for i := 0; i < trials; i++ {
			sum += r.GeometricCapped(p, math.MaxInt)
		}
		mean := float64(sum) / trials
		want := 1 / p
		if math.Abs(mean-want)/want > 0.05 {
			t.Errorf("GeometricCapped(%g, MaxInt) mean = %g, want ~%g", p, mean, want)
		}
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(6)
	for i := 0; i < 100; i++ {
		if g := r.GeometricCapped(1, 8); g != 1 {
			t.Fatalf("GeometricCapped(1, 8) = %d, want 1", g)
		}
	}
}

func TestGeometricPPanics(t *testing.T) {
	// NaN used to loop forever: Bernoulli(NaN) never succeeds.
	for _, p := range []float64{0, -0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GeometricCapped(%g, 4) did not panic", p)
				}
			}()
			New(1).GeometricCapped(p, 4)
		}()
	}
}

// TestGeometricCappedStopsAtCap: a capped draw stops its trials at the
// cap. With p = 1e-300 (about 10^300 trials uncapped) and cap 4 it
// returns 4 after exactly three Bernoulli trials, each one Float64
// draw, and cap 1 draws nothing.
func TestGeometricCappedStopsAtCap(t *testing.T) {
	for _, cap := range []int{1, 4, 1024} {
		r, ref := New(9), New(9)
		if g := r.GeometricCapped(1e-300, cap); g != cap {
			t.Fatalf("GeometricCapped(1e-300, %d) = %d", cap, g)
		}
		for range cap - 1 {
			ref.Float64()
		}
		if got, want := r.Uint64(), ref.Uint64(); got != want {
			t.Errorf("cap %d: the stream advanced by other than %d trials", cap, cap-1)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(8)
	const trials = 40000
	for _, lambda := range []float64{0.5, 1, 4} {
		sum := 0.0
		for i := 0; i < trials; i++ {
			sum += r.Exponential(lambda)
		}
		mean := sum / trials
		want := 1 / lambda
		if math.Abs(mean-want)/want > 0.05 {
			t.Errorf("Exponential(%g) mean = %g, want ~%g", lambda, mean, want)
		}
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleProperties(t *testing.T) {
	r := New(13)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%50 + 1
		k := int(kRaw) % (n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFull(t *testing.T) {
	r := New(17)
	s := r.Sample(10, 10)
	seen := make([]bool, 10)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("Sample(10,10) missing %d: %v", i, s)
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3,4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestSampleUniformity(t *testing.T) {
	r := New(19)
	counts := make([]int, 5)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(5, 2) {
			counts[v]++
		}
	}
	// Each element should appear with probability 2/5.
	want := float64(trials) * 2 / 5
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("element %d chosen %d times, want ~%g", i, c, want)
		}
	}
}

func TestIDUniqueness(t *testing.T) {
	r := New(23)
	seen := make(map[uint64]bool, 10000)
	for i := 0; i < 10000; i++ {
		id := r.ID()
		if seen[id] {
			t.Fatalf("duplicate 64-bit ID after %d draws", i)
		}
		seen[id] = true
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 1: "1", -1: "-1", 12345: "12345", -987: "-987"}
	for n, want := range cases {
		if got := itoa(n); got != want {
			t.Errorf("itoa(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestMixAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	for bit := 0; bit < 64; bit += 7 {
		a := mix(12345)
		b := mix(12345 ^ (1 << uint(bit)))
		diff := 0
		for x := a ^ b; x != 0; x &= x - 1 {
			diff++
		}
		if diff < 10 {
			t.Errorf("bit %d: only %d output bits changed", bit, diff)
		}
	}
}

func TestSplitIntoMatchesSplit(t *testing.T) {
	// SplitInto must produce the exact stream Split produces — for a nil
	// destination (fresh allocation) and when reseeding an arbitrary
	// existing stream in place.
	parent := New(31)
	want := make([]uint64, 16)
	for i := range want {
		want[i] = parent.Split("leave").Uint64() // fresh stream each time: same first draw
	}
	fresh := parent.SplitInto("leave", nil)
	if got := fresh.Uint64(); got != want[0] {
		t.Errorf("SplitInto(nil) first draw %d, want %d", got, want[0])
	}
	scratch := New(999) // unrelated stream to be recycled
	scratch.Uint64()    // advance it so reseeding has to reset real state
	for i := range want {
		scratch = parent.SplitInto("leave", scratch)
		if got := scratch.Uint64(); got != want[i] {
			t.Fatalf("reseeded draw %d: got %d want %d", i, got, want[i])
		}
	}
}

func TestSplitIntoAllocFree(t *testing.T) {
	// Re-deriving a labelled stream into existing storage is what keeps
	// steady-state churn rounds allocation-free; pin it. Each run draws
	// past the 273rd value, so the reseeded stream rebuilds its register
	// — which must reuse the buffer of the first (warm-up) run.
	parent := New(32)
	scratch := parent.Split("warm")
	allocs := testing.AllocsPerRun(100, func() {
		scratch = parent.SplitInto("leave", scratch)
		for range rngTap + 10 {
			scratch.Uint64()
		}
	})
	if allocs != 0 {
		t.Errorf("SplitInto into existing storage allocates: %.1f allocs/run, want 0", allocs)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	a := New(33)
	first := []uint64{a.Uint64(), a.Uint64(), a.Uint64()}
	a.Reseed(33)
	if a.Seed() != 33 {
		t.Errorf("Seed() = %d after Reseed(33)", a.Seed())
	}
	for i, want := range first {
		if got := a.Uint64(); got != want {
			t.Fatalf("draw %d after Reseed: got %d want %d", i, got, want)
		}
	}
	a.Reseed(34)
	b := New(34)
	for i := 0; i < 3; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("Reseed(34) draw %d: got %d, New(34) gives %d", i, got, want)
		}
	}
}
