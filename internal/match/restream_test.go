package match

import (
	"runtime"
	"testing"

	"datasynth/internal/graph"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// restreamSetup builds an LFR instance with LDG ground truth for
// refinement tests.
func restreamSetup(t *testing.T, n int64, k int) (*graph.Graph, *stats.Joint, []int64, func([]int64) float64) {
	t.Helper()
	lfr := sgen.NewLFR(5)
	et, err := lfr.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := xrand.GroupSizes(n, k, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	ldg, err := NewLDG(sizes)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ldg.Partition(g, RandomOrder(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	target, err := stats.EmpiricalJoint(et, truth, k)
	if err != nil {
		t.Fatal(err)
	}
	l1Of := func(assign []int64) float64 {
		obs, err := stats.EmpiricalJoint(et, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := stats.L1(target, obs)
		if err != nil {
			t.Fatal(err)
		}
		return l1
	}
	return g, target, sizes, l1Of
}

func TestMultiPassImprovesFidelity(t *testing.T) {
	g, target, sizes, l1Of := restreamSetup(t, 5000, 16)
	order := RandomOrder(g.N(), 2)

	single, err := newPart(t, target, sizes).Partition(g, order)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := newPart(t, target, sizes).PartitionMultiPass(g, order, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, sm := l1Of(single), l1Of(multi)
	if sm >= s1 {
		t.Errorf("refinement L1 %v not better than single-pass %v", sm, s1)
	}
}

func newPart(t *testing.T, target *stats.Joint, sizes []int64) *SBMPart {
	t.Helper()
	p, err := NewSBMPart(target, sizes)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 3
	return p
}

func TestMultiPassRespectsCapacities(t *testing.T) {
	g, target, sizes, _ := restreamSetup(t, 3000, 8)
	assign, err := newPart(t, target, sizes).PartitionMultiPass(g, RandomOrder(g.N(), 7), 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, len(sizes))
	for _, a := range assign {
		if a < 0 || int(a) >= len(sizes) {
			t.Fatalf("invalid assignment %d", a)
		}
		counts[a]++
	}
	for i := range sizes {
		if counts[i] > sizes[i] {
			t.Fatalf("group %d over capacity: %d > %d", i, counts[i], sizes[i])
		}
	}
}

func TestMultiPassZeroExtraEqualsSingle(t *testing.T) {
	g, target, sizes, _ := restreamSetup(t, 2000, 4)
	order := RandomOrder(g.N(), 9)
	a, err := newPart(t, target, sizes).Partition(g, order)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPart(t, target, sizes).PartitionMultiPass(g, order, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("0 extra passes must equal single pass")
		}
	}
}

func TestMultiPassValidation(t *testing.T) {
	g, target, sizes, _ := restreamSetup(t, 1000, 4)
	if _, err := newPart(t, target, sizes).PartitionMultiPass(g, RandomOrder(g.N(), 1), -1); err == nil {
		t.Error("negative passes should fail")
	}
}

func TestMultiPassDeterministic(t *testing.T) {
	g, target, sizes, _ := restreamSetup(t, 2000, 8)
	order := RandomOrder(g.N(), 4)
	a, err := newPart(t, target, sizes).PartitionMultiPass(g, order, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPart(t, target, sizes).PartitionMultiPass(g, order, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("multi-pass not deterministic")
		}
	}
}

// multiPassWith runs PartitionMultiPass at the given worker count on a
// fresh partitioner.
func multiPassWith(t testing.TB, g *graph.Graph, target *stats.Joint, sizes []int64, passes, workers int) []int64 {
	t.Helper()
	part, err := NewSBMPart(target, sizes)
	if err != nil {
		t.Fatal(err)
	}
	part.Seed = 99
	part.Workers = workers
	assign, err := part.PartitionMultiPass(g, RandomOrder(g.N(), 5), passes)
	if err != nil {
		t.Fatal(err)
	}
	return assign
}

// TestMultiPassGoldenHash pins two refinement passes on the
// TestPartitionGoldenHash fixture, at worker counts that engage the
// sharded joint-matrix rebuild. Like that test's hash, this one
// predates the removal of the windowed refinement passes.
func TestMultiPassGoldenHash(t *testing.T) {
	const want = "9542e339d1da8b6501077ad3f09f1efedcacd0c18a79d7cd7c1cf6e194349311"
	g, target, sizes := lfrFixture(t, 2*rebuildMinShard, 16)
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		if got := int64sSHA256(multiPassWith(t, g, target, sizes, 2, workers)); got != want {
			t.Fatalf("workers=%d: multi-pass fingerprint %s, want %s", workers, got, want)
		}
	}
}

// isolatedFixture builds a graph whose second half is isolated nodes,
// with total capacity exactly n — so late isolated placements exhaust
// group quotas and exercise the first-feasible fallback scan.
func isolatedFixture(t *testing.T, n int64, k int) (*graph.Graph, *stats.Joint, []int64) {
	t.Helper()
	et := table.NewEdgeTable("iso", n)
	half := n / 2
	for v := int64(1); v < half; v++ {
		et.Add(v-1, v) // a path through the first half
		et.Add(v%7, v) // plus some chords for group structure
	}
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		t.Fatal(err)
	}
	// Tight, skewed capacities summing exactly to n.
	sizes := make([]int64, k)
	rem := n
	for i := 0; i < k-1; i++ {
		sizes[i] = rem / 3
		rem -= sizes[i]
	}
	sizes[k-1] = rem
	target, err := stats.HomophilyJoint(sizes, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return g, target, sizes
}

// TestMultiPassIsolatedQuotaDeterminism: with tight quotas and many
// isolated nodes, the refinement fallback (keep previous group, else
// first feasible group) must respect capacities and resolve
// identically at every worker count of the sharded rebuild.
func TestMultiPassIsolatedQuotaDeterminism(t *testing.T) {
	const n, k = 3 * rebuildMinShard, 6
	g, target, sizes := isolatedFixture(t, n, k)
	ref := multiPassWith(t, g, target, sizes, 3, 1)

	counts := make([]int64, k)
	for _, a := range ref {
		counts[a]++
	}
	for i := range sizes {
		if counts[i] > sizes[i] {
			t.Fatalf("group %d over capacity: %d > %d", i, counts[i], sizes[i])
		}
	}
	for _, workers := range []int{2, 3, 0} {
		got := multiPassWith(t, g, target, sizes, 3, workers)
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("workers=%d: node %d assigned %d, serial %d", workers, v, got[v], ref[v])
			}
		}
	}
}

// TestMultiPassPassTimes: PartitionMultiPass must record one wall-time
// entry per streaming pass (initial + each refinement), resetting
// between calls.
func TestMultiPassPassTimes(t *testing.T) {
	g, target, sizes := lfrFixture(t, 1000, 4)
	part, err := NewSBMPart(target, sizes)
	if err != nil {
		t.Fatal(err)
	}
	part.Seed = 7
	if _, err := part.PartitionMultiPass(g, RandomOrder(g.N(), 3), 2); err != nil {
		t.Fatal(err)
	}
	if len(part.PassTimes) != 3 {
		t.Fatalf("PassTimes has %d entries after 1+2 passes, want 3", len(part.PassTimes))
	}
	if _, err := part.PartitionMultiPass(g, RandomOrder(g.N(), 3), 0); err != nil {
		t.Fatal(err)
	}
	if len(part.PassTimes) != 1 {
		t.Fatalf("PassTimes has %d entries after a 0-refinement call, want 1", len(part.PassTimes))
	}
}

// TestMatchPropertyRefinedWorkersIdentical: the end-to-end matching
// operator with refinement passes must hand out identical mappings at
// every worker count of the sharded rebuild, and must report per-pass
// timings.
func TestMatchPropertyRefinedWorkersIdentical(t *testing.T) {
	const n, k = 2 * rebuildMinShard, 4
	et, err := sgen.NewLFR(23).Run(n)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, k)
	for i := range sizes {
		sizes[i] = n / int64(k)
	}
	target, err := stats.HomophilyJoint(sizes, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	rowLabels := make([]int64, n)
	idx := int64(0)
	for v, sz := range sizes {
		for c := int64(0); c < sz; c++ {
			rowLabels[idx] = int64(v)
			idx++
		}
	}
	run := func(workers int) *Result {
		opt := DefaultOptions(77)
		opt.Passes = 2
		opt.Workers = workers
		res, err := MatchProperty(et, n, rowLabels, target, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	if len(ref.PassTimes) != 3 {
		t.Fatalf("PassTimes has %d entries, want 3 (stream + 2 refinements)", len(ref.PassTimes))
	}
	for _, workers := range []int{2, 0} {
		got := run(workers)
		for v := range ref.Mapping {
			if got.Mapping[v] != ref.Mapping[v] {
				t.Fatalf("workers=%d: mapping[%d] = %d, serial %d", workers, v, got.Mapping[v], ref.Mapping[v])
			}
		}
	}
}

func BenchmarkMultiPassSerial(b *testing.B) {
	g, target, sizes := lfrFixture(b, 30000, 16)
	order := RandomOrder(g.N(), 5)
	part, _ := NewSBMPart(target, sizes)
	part.Seed = 99
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := part.PartitionMultiPass(g, order, 2); err != nil {
			b.Fatal(err)
		}
	}
}
