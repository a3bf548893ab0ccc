package match

import (
	"math"
	"testing"

	"datasynth/internal/sgen"
	"datasynth/internal/table"
)

// separableBipartite builds a bipartite graph where tails [0,10) attach
// only to heads [0,20) and tails [10,20) only to heads [20,40): a
// perfectly block-diagonal instance.
func separableBipartite(t *testing.T) (*table.EdgeTable, int64, int64) {
	t.Helper()
	et := table.NewEdgeTable("bip", 40)
	for tl := int64(0); tl < 10; tl++ {
		et.Add(tl, tl*2)
		et.Add(tl, tl*2+1)
	}
	for tl := int64(10); tl < 20; tl++ {
		et.Add(tl, 20+(tl-10)*2)
		et.Add(tl, 20+(tl-10)*2+1)
	}
	return et, 20, 40
}

func diagBipTarget() *BipartiteTarget {
	j := NewBipartiteTarget(2, 2)
	j.Set(0, 0, 0.5)
	j.Set(1, 1, 0.5)
	return j
}

func TestBipartiteTargetValidate(t *testing.T) {
	j := diagBipTarget()
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := NewBipartiteTarget(2, 2)
	bad.Set(0, 0, 0.4)
	if err := bad.Validate(); err == nil {
		t.Error("mass != 1 should fail")
	}
	neg := NewBipartiteTarget(1, 1)
	neg.Set(0, 0, -1)
	if err := neg.Validate(); err == nil {
		t.Error("negative cell should fail")
	}
}

func TestBipartiteTargetNormalize(t *testing.T) {
	j := NewBipartiteTarget(2, 2)
	j.Set(0, 0, 2)
	j.Set(1, 1, 2)
	j.Normalize()
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(j.At(0, 0)-0.5) > 1e-12 {
		t.Errorf("normalised cell = %v", j.At(0, 0))
	}
}

func TestEmpiricalBipartite(t *testing.T) {
	et := table.NewEdgeTable("e", 2)
	et.Add(0, 0)
	et.Add(1, 1)
	j, err := EmpiricalBipartite(et, []int64{0, 1}, []int64{1, 0}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j.At(0, 1)-0.5) > 1e-12 || math.Abs(j.At(1, 0)-0.5) > 1e-12 {
		t.Errorf("empirical bipartite wrong: %v", j.P)
	}
	if _, err := EmpiricalBipartite(et, []int64{0}, []int64{0, 0}, 2, 2); err == nil {
		t.Error("short labels should fail")
	}
}

func TestMatchBipartiteSeparable(t *testing.T) {
	et, nT, nH := separableBipartite(t)
	tailRows := make([]int64, nT)
	for i := int64(10); i < nT; i++ {
		tailRows[i] = 1
	}
	headRows := make([]int64, nH)
	for i := int64(20); i < nH; i++ {
		headRows[i] = 1
	}
	res, err := MatchBipartite(et, nT, nH, tailRows, headRows, diagBipTarget(), DefaultOptions(23))
	if err != nil {
		t.Fatal(err)
	}
	// The instance is separable, but single-pass streaming places
	// degree-1 heads that arrive before their tail blind, so exact
	// recovery is not guaranteed (the paper: greedy "does not guarantee
	// an optimal solution"). Require the diagonal mass to be far above
	// the 0.5 a random assignment would give.
	diag := res.Observed.At(0, 0) + res.Observed.At(1, 1)
	if diag < 0.75 {
		t.Errorf("observed diagonal mass = %v, want > 0.75 (random gives 0.5)", diag)
	}
	// Mappings are valid and injective per side.
	checkInjective := func(f []int64, rows []int64, assign []int64) {
		used := map[int64]bool{}
		for v, r := range f {
			if used[r] {
				t.Fatalf("row %d reused", r)
			}
			used[r] = true
			if rows[r] != assign[v] {
				t.Fatalf("node %d group %d got row %d label %d", v, assign[v], r, rows[r])
			}
		}
	}
	checkInjective(res.TailMapping, tailRows, res.TailAssign)
	checkInjective(res.HeadMapping, headRows, res.HeadAssign)
}

func TestMatchBipartiteErrors(t *testing.T) {
	et, nT, nH := separableBipartite(t)
	tailRows := make([]int64, nT)
	headRows := make([]int64, nH)
	for i := int64(10); i < nT; i++ {
		tailRows[i] = 1
	}
	for i := int64(20); i < nH; i++ {
		headRows[i] = 1
	}
	// Bad target mass.
	bad := NewBipartiteTarget(2, 2)
	if _, err := MatchBipartite(et, nT, nH, tailRows, headRows, bad, DefaultOptions(1)); err == nil {
		t.Error("zero-mass target should fail")
	}
	// Too few tail rows.
	if _, err := MatchBipartite(et, nT, nH, tailRows[:5], headRows, diagBipTarget(), DefaultOptions(1)); err == nil {
		t.Error("short tail rows should fail")
	}
	// Edge endpoint out of bounds.
	badET := table.NewEdgeTable("e", 1)
	badET.Add(99, 0)
	if _, err := MatchBipartite(badET, 10, 10, make([]int64, 10), make([]int64, 10), mustUniformBip(), DefaultOptions(1)); err == nil {
		t.Error("invalid edge table should fail")
	}
}

func mustUniformBip() *BipartiteTarget {
	j := NewBipartiteTarget(1, 1)
	j.Set(0, 0, 1)
	return j
}

func TestMatchBipartiteDeterministic(t *testing.T) {
	et, nT, nH := separableBipartite(t)
	tailRows := make([]int64, nT)
	headRows := make([]int64, nH)
	for i := int64(10); i < nT; i++ {
		tailRows[i] = 1
	}
	for i := int64(20); i < nH; i++ {
		headRows[i] = 1
	}
	run := func() *BipartiteResult {
		res, err := MatchBipartite(et, nT, nH, tailRows, headRows, diagBipTarget(), DefaultOptions(55))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.TailMapping {
		if a.TailMapping[i] != b.TailMapping[i] {
			t.Fatal("tail mapping not deterministic")
		}
	}
	for i := range a.HeadMapping {
		if a.HeadMapping[i] != b.HeadMapping[i] {
			t.Fatal("head mapping not deterministic")
		}
	}
}

func TestBuildAdj(t *testing.T) {
	a := buildAdj([]int64{0, 0, 2}, []int64{5, 6, 7}, 3)
	if n := a.neighbors(0); len(n) != 2 || n[0] != 5 || n[1] != 6 {
		t.Errorf("neighbors(0) = %v", n)
	}
	if n := a.neighbors(1); len(n) != 0 {
		t.Errorf("neighbors(1) = %v", n)
	}
	if n := a.neighbors(2); len(n) != 1 || n[0] != 7 {
		t.Errorf("neighbors(2) = %v", n)
	}
}

// bipartiteFixture builds a moderately sized *→* bipartite edge table
// (Zipf attachment: skewed out-degrees and head popularity) plus row
// labellings for both domains and the joint they induce as the
// matching target.
func bipartiteFixture(t testing.TB, nTail, nHead int64, kt, kh int) (*table.EdgeTable, []int64, []int64, *BipartiteTarget) {
	t.Helper()
	gen := sgen.NewZipfAttachment(1, 12, 2.2, 1.1, 41)
	et, err := gen.RunBipartite(nTail, nHead)
	if err != nil {
		t.Fatal(err)
	}
	tailLabels := make([]int64, nTail)
	for i := range tailLabels {
		tailLabels[i] = int64(i % kt)
	}
	headLabels := make([]int64, nHead)
	for i := range headLabels {
		headLabels[i] = int64(i % kh)
	}
	target, err := EmpiricalBipartite(et, tailLabels, headLabels, kt, kh)
	if err != nil {
		t.Fatal(err)
	}
	return et, tailLabels, headLabels, target
}

func matchBipartiteFixture(t testing.TB, et *table.EdgeTable, nTail, nHead int64, tailLabels, headLabels []int64, target *BipartiteTarget) *BipartiteResult {
	t.Helper()
	res, err := MatchBipartite(et, nTail, nHead, tailLabels, headLabels, target, DefaultOptions(63))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMatchBipartiteGoldenHash pins a bipartite matching — both
// assignment vectors and both mappings. The hash predates the removal
// of the windowed bipartite matcher (it was the same at every window
// and worker count); a change means existing seeds produce different
// matchings — an intentional break of the per-seed reproducibility
// contract that must bump core.SchemaVersion.
func TestMatchBipartiteGoldenHash(t *testing.T) {
	const nTail, nHead = 6000, 3000
	const want = "aab8a38b8a4f27e925b9f39483b6cffeaa22dce5a8bd4b7f5c463803e1daf5f4"
	et, tailLabels, headLabels, target := bipartiteFixture(t, nTail, nHead, 12, 6)
	res := matchBipartiteFixture(t, et, nTail, nHead, tailLabels, headLabels, target)
	if got := int64sSHA256(res.TailAssign, res.HeadAssign, res.TailMapping, res.HeadMapping); got != want {
		t.Fatalf("bipartite matching fingerprint %s, want %s", got, want)
	}
}

func BenchmarkMatchBipartiteSerial(b *testing.B) {
	const nTail, nHead = 30000, 15000
	et, tailLabels, headLabels, target := bipartiteFixture(b, nTail, nHead, 16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matchBipartiteFixture(b, et, nTail, nHead, tailLabels, headLabels, target)
	}
}
