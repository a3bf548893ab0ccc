package sgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// rmatConfigs are the generator shapes whose worker-count invariance
// the sharding contract promises: the alias fast path, the per-level
// Noise path, the KeepDuplicates path and the cycle-walking
// non-power-of-two path.
func rmatConfigs() map[string]func() *RMAT {
	return map[string]func() *RMAT{
		"default": func() *RMAT { return NewRMAT(21) },
		"noise": func() *RMAT {
			g := NewRMAT(22)
			g.Noise = 0.1
			return g
		},
		"keepDuplicates": func() *RMAT {
			g := NewRMAT(23)
			g.KeepDuplicates = true
			return g
		},
		"noisyKeepDuplicates": func() *RMAT {
			g := NewRMAT(24)
			g.Noise = 0.05
			g.KeepDuplicates = true
			return g
		},
	}
}

// TestRMATWorkerCountByteIdentical: the sharded generator must produce
// the same edge table no matter how many workers fill the slab —
// per-(round, shard) RNG streams over disjoint slab ranges plus a
// deterministic round budget make the output a pure function of the
// seed and parameters.
func TestRMATWorkerCountByteIdentical(t *testing.T) {
	for name, mk := range rmatConfigs() {
		for _, n := range []int64{1 << 12, 3000} {
			run := func(workers int) *table.EdgeTable {
				g := mk()
				g.Workers = workers
				et, err := g.Run(n)
				if err != nil {
					t.Fatalf("%s n=%d workers=%d: %v", name, n, workers, err)
				}
				return et
			}
			ref := run(1)
			if ref.Len() == 0 {
				t.Fatalf("%s n=%d: no edges", name, n)
			}
			for _, w := range []int{2, 3, runtime.NumCPU()} {
				got := run(w)
				if got.Len() != ref.Len() {
					t.Fatalf("%s n=%d workers=%d: %d edges, serial %d", name, n, w, got.Len(), ref.Len())
				}
				for i := range ref.Tail {
					if ref.Tail[i] != got.Tail[i] || ref.Head[i] != got.Head[i] {
						t.Fatalf("%s n=%d workers=%d: edge %d is (%d,%d), serial (%d,%d)",
							name, n, w, i, got.Tail[i], got.Head[i], ref.Tail[i], ref.Head[i])
					}
				}
			}
		}
	}
}

func edgeTableSHA256(et *table.EdgeTable) string {
	h := sha256.New()
	var buf [16]byte
	for i := range et.Tail {
		binary.LittleEndian.PutUint64(buf[:8], uint64(et.Tail[i]))
		binary.LittleEndian.PutUint64(buf[8:], uint64(et.Head[i]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRMATGoldenHash pins the exact edge table of fixed
// configurations. A change here means the generator's output changed
// for existing seeds — an intentional break of the per-seed
// reproducibility contract that must be called out in release notes
// (as the sharded rewrite itself was). The larger sizes run rounds of
// over a million candidates through many dedup buckets and chunks;
// 100000 is not a power of two, so endpoints are cycle-walked.
func TestRMATGoldenHash(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want string
	}{
		{1 << 12, "204a64c5f795d880a44a524b64524ddc664762552019e9a9bfd24d941af77b24"},
		{1 << 16, "753ad3bd2a56ed98cce692c51a1f30e16074b8514dd9d1c7c6cebd899b923bcb"},
		{100000, "6f13f44ec1f7b510d734ffddd45c5928d78b93d8dbd172f1f6c53980a3d131f8"},
	} {
		for _, w := range []int{1, runtime.NumCPU()} {
			g := NewRMAT(7)
			g.Workers = w
			et, err := g.Run(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if got := edgeTableSHA256(et); got != tc.want {
				t.Fatalf("n=%d workers=%d: edge table hash %s, want %s", tc.n, w, got, tc.want)
			}
		}
	}
}

// TestRMATQuadrantSkewShardedAndReference: the A quadrant
// (low-id half on both endpoints) must dominate the D quadrant on
// every draw path — the alias fast path and the per-level Noise path.
func TestRMATQuadrantSkewShardedAndReference(t *testing.T) {
	check := func(name string, g *RMAT) {
		n := int64(1 << 12)
		et, err := g.Run(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		half := n / 2
		var aa, dd int64
		for i := range et.Tail {
			lowT, lowH := et.Tail[i] < half, et.Head[i] < half
			switch {
			case lowT && lowH:
				aa++
			case !lowT && !lowH:
				dd++
			}
		}
		if aa < 4*dd {
			t.Fatalf("%s: A corner %d not dominant over D corner %d", name, aa, dd)
		}
	}
	check("alias", NewRMAT(31))
	noisy := NewRMAT(31)
	noisy.Noise = 0.05
	check("per-level", noisy)
	parallel := NewRMAT(31)
	parallel.Workers = 4
	check("alias-4workers", parallel)
}

// TestRMATEdgeFactorAndSimpleGraph: every configuration must hit the
// exact edge target, and the default (dedup) configurations must emit
// a simple graph — no self-loops, no repeated undirected pairs.
func TestRMATEdgeFactorAndSimpleGraph(t *testing.T) {
	for name, mk := range rmatConfigs() {
		for _, n := range []int64{1 << 12, 3000} {
			g := mk()
			et, err := g.Run(n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if et.Len() != g.EdgeFactor*n {
				t.Fatalf("%s n=%d: %d edges, want %d", name, n, et.Len(), g.EdgeFactor*n)
			}
			for i := range et.Tail {
				if et.Tail[i] < 0 || et.Tail[i] >= n || et.Head[i] < 0 || et.Head[i] >= n {
					t.Fatalf("%s n=%d: edge %d endpoint out of range: (%d,%d)", name, n, i, et.Tail[i], et.Head[i])
				}
			}
			if g.KeepDuplicates {
				continue
			}
			seen := make(map[uint64]struct{}, et.Len())
			for i := range et.Tail {
				if et.Tail[i] == et.Head[i] {
					t.Fatalf("%s n=%d: self-loop at %d", name, n, et.Tail[i])
				}
				key := packEdgeKey(et.Tail[i], et.Head[i])
				if _, dup := seen[key]; dup {
					t.Fatalf("%s n=%d: duplicate edge (%d,%d)", name, n, et.Tail[i], et.Head[i])
				}
				seen[key] = struct{}{}
			}
		}
	}
}

// drawShardReference is the noiseless per-level quadrant recursion the
// alias tables replace: one uniform draw and a three-way comparison
// per level. It is the reference the alias sampler is tested against.
func drawShardReference(q *xrand.Seq, tails, heads []int64, a, b, c float64, scale uint) {
	ab, abc := a+b, a+b+c
	for i := range tails {
		var t, h int64
		for level := scale; level > 0; level-- {
			u := q.Float64()
			bit := int64(1) << (level - 1)
			switch {
			case u < a:
				// quadrant (0,0): nothing to add
			case u < ab:
				h |= bit
			case u < abc:
				t |= bit
			default:
				t |= bit
				h |= bit
			}
		}
		tails[i], heads[i] = t, h
	}
}

// TestRMATAliasOutcomeDistribution validates the alias sampler against
// the per-level reference sampler. For a remainder-only table (scale
// 2), a single block (scale 4) and a block plus a remainder (scale 6),
// every (tail, head) outcome must occur in both with frequencies that
// agree within five standard deviations of the closed-form product
// probability; on a two-block table (scale 8) every level's tail/head
// bit marginals must agree and match C+D and B+D.
func TestRMATAliasOutcomeDistribution(t *testing.T) {
	a, b, c, d := 0.57, 0.19, 0.19, 0.05
	p := [4]float64{a, b, c, d}
	const draws = 1 << 19
	sample := func(scale uint, seed uint64) (alias, ref [2][]int64) {
		for _, s := range []*[2][]int64{&alias, &ref} {
			s[0], s[1] = make([]int64, draws), make([]int64, draws)
		}
		drawShardAlias(xrand.NewSeq(seed), alias[0], alias[1], newRMATAlias(a, b, c, d, scale))
		drawShardReference(xrand.NewSeq(seed+1), ref[0], ref[1], a, b, c, scale)
		return alias, ref
	}

	for _, scale := range []uint{2, 4, 6} {
		alias, ref := sample(scale, 99)
		outcomes := 1 << (2 * scale)
		count := func(s [2][]int64) []int64 {
			counts := make([]int64, outcomes)
			for i := range s[0] {
				counts[s[0][i]<<scale|s[1][i]]++
			}
			return counts
		}
		ca, cr := count(alias), count(ref)
		for o := 0; o < outcomes; o++ {
			tt, hh := o>>scale, o&(1<<scale-1)
			want := 1.0
			for lvl := int(scale) - 1; lvl >= 0; lvl-- {
				want *= p[(tt>>lvl&1)<<1|hh>>lvl&1]
			}
			fa, fr := float64(ca[o])/draws, float64(cr[o])/draws
			if diff, tol := math.Abs(fa-fr), 5*math.Sqrt(2*want*(1-want)/draws); diff > tol {
				t.Fatalf("scale %d outcome (%d,%d): alias %.6f, reference %.6f, closed form %.6f",
					scale, tt, hh, fa, fr, want)
			}
		}
	}

	alias, ref := sample(8, 100)
	for lvl := 0; lvl < 8; lvl++ {
		var marg [2][2]float64 // [alias|ref][tail|head]
		for k, s := range [][2][]int64{alias, ref} {
			for i := range s[0] {
				marg[k][0] += float64(s[0][i] >> lvl & 1)
				marg[k][1] += float64(s[1][i] >> lvl & 1)
			}
		}
		for side, want := range []float64{c + d, b + d} {
			fa, fr := marg[0][side]/draws, marg[1][side]/draws
			if math.Abs(fa-fr) > 0.005 || math.Abs(fa-want) > 0.005 {
				t.Fatalf("level %d side %d: alias marginal %.4f, reference %.4f, want %.4f", lvl, side, fa, fr, want)
			}
		}
	}
}

// TestRMATRunNote: sharding telemetry must reach the engine's timing
// report via the Noter interface.
func TestRMATRunNote(t *testing.T) {
	g := NewRMAT(12)
	g.Workers = 2
	if _, err := g.Run(1 << 10); err != nil {
		t.Fatal(err)
	}
	var _ Noter = g
	note := g.RunNote()
	var rounds, workers int
	var drawsPerEdge, drawS, dedupS float64
	if _, err := fmt.Sscanf(note, "rmat %d rounds, %g draws/edge, %d workers, draw %gs, dedup %gs",
		&rounds, &drawsPerEdge, &workers, &drawS, &dedupS); err != nil {
		t.Fatalf("note %q: %v", note, err)
	}
	if rounds < 1 || drawsPerEdge < 1 || workers != 2 || drawS < 0 || dedupS < 0 {
		t.Fatalf("implausible note %q", note)
	}
	if g.lastStats.draw <= 0 || g.lastStats.dedup <= 0 {
		t.Fatalf("phase times not recorded: %+v", g.lastStats)
	}
}

// naiveDedupRound is the reference semantics of one
// appendDeduped/appendDedupedPacked round: filter self-loops and
// out-of-range endpoints, drop keys duplicated within the round or
// accepted by any earlier round, emit winners in sorted key order up
// to limit, and remember every winner (even limit-dropped ones).
func naiveDedupRound(accepted map[uint64]struct{}, et *table.EdgeTable, tails, heads []int64, n, limit int64) {
	inRound := map[uint64]struct{}{}
	var fresh []uint64
	for i := range tails {
		t, h := tails[i], heads[i]
		if t == h || t >= n || h >= n {
			continue
		}
		key := packEdgeKey(t, h)
		if _, dup := accepted[key]; dup {
			continue
		}
		if _, dup := inRound[key]; dup {
			continue
		}
		inRound[key] = struct{}{}
		fresh = append(fresh, key)
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
	for _, key := range fresh {
		if limit > 0 {
			et.Add(int64(key>>32), int64(key&0xffffffff))
			limit--
		}
		accepted[key] = struct{}{}
	}
}

// checkRMATDedupAgainstReference drives both dedup front-ends (the
// unpacked Noise-path one and the packed fast-path one) through
// multiple rounds at 1, 2 and 3 workers and compares each against the
// map reference. Rounds alternate between the two halves of the
// candidates so the accepted set sees repeats from earlier rounds.
func checkRMATDedupAgainstReference(t *testing.T, tails, heads []int64, n int64, limits []int64) {
	t.Helper()
	half := len(tails) / 2
	bounds := [][2]int{{0, half}, {half, len(tails)}}
	naive := table.NewEdgeTable("naive", 0)
	accepted := map[uint64]struct{}{}
	for r, lim := range limits {
		lo, hi := bounds[r%2][0], bounds[r%2][1]
		naiveDedupRound(accepted, naive, tails[lo:hi], heads[lo:hi], n, lim)
	}
	for _, workers := range []int{1, 2, 3} {
		for _, packed := range []bool{false, true} {
			dd := newEdgeDedup(0)
			fast := table.NewEdgeTable("fast", 0)
			for r, lim := range limits {
				lo, hi := bounds[r%2][0], bounds[r%2][1]
				if packed {
					slab := make([]uint64, 0, hi-lo)
					for i := lo; i < hi; i++ {
						slab = append(slab, packEdgeKey(tails[i], heads[i]))
					}
					dd.appendDedupedPacked(fast, slab, n, lim, workers)
				} else {
					dd.appendDeduped(fast, tails[lo:hi], heads[lo:hi], n, lim, workers)
				}
			}
			kind := fmt.Sprintf("unpacked workers=%d", workers)
			if packed {
				kind = fmt.Sprintf("packed workers=%d", workers)
			}
			assertSameEdges(t, kind, naive, fast)
		}
	}
}

// rmatDedupCandidates turns fuzz bytes into candidate endpoint pairs
// below span: small spans maximise duplicate and self-loop pressure.
func rmatDedupCandidates(data []byte, span uint8) (tails, heads []int64) {
	if span < 2 {
		span = 2
	}
	nCand := len(data) / 2
	tails = make([]int64, nCand)
	heads = make([]int64, nCand)
	for i := 0; i < nCand; i++ {
		tails[i] = int64(data[2*i]) % int64(span)
		heads[i] = int64(data[2*i+1]) % int64(span)
	}
	return tails, heads
}

// FuzzRMATDedup go-fuzzes the sharded-RMAT dedup rounds against the
// map reference; n below span forces out-of-range rejections.
func FuzzRMATDedup(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 1, 0}, uint8(4), int64(4), int64(100), int64(100))
	f.Add([]byte{1, 1, 1, 1, 9, 9}, uint8(8), int64(5), int64(1), int64(0))
	f.Add([]byte{}, uint8(2), int64(2), int64(3), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, span uint8, n, lim1, lim2 int64) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		if n < 0 || n > 1<<31 {
			n = 16
		}
		if n < 2 {
			n = 2
		}
		if lim1 < 0 {
			lim1 = -lim1
		}
		if lim2 < 0 {
			lim2 = -lim2
		}
		tails, heads := rmatDedupCandidates(data, span)
		checkRMATDedupAgainstReference(t, tails, heads, n, []int64{lim1, lim2, 1 << 30})
	})
}

// TestRMATDedupAgainstReference runs the fuzz body over deterministic
// batches on every ordinary `go test`.
func TestRMATDedupAgainstReference(t *testing.T) {
	q := newSeq(17)
	for trial := 0; trial < 60; trial++ {
		data := make([]byte, int(q.Intn(500)))
		for i := range data {
			data[i] = byte(q.Intn(256))
		}
		span := uint8(2 + q.Intn(30))
		n := 2 + q.Intn(40)
		limits := []int64{q.Intn(200), q.Intn(4), 1 << 30}
		tails, heads := rmatDedupCandidates(data, span)
		checkRMATDedupAgainstReference(t, tails, heads, n, limits)
	}
}

// TestRMATDedupBucketsAndChunks covers what the byte-sized fuzz inputs
// cannot reach: ids above 255 and rounds large enough to span several
// 64k-key chunks and hundreds of buckets. Candidates are RMAT-skewed
// (low ids dominate, as in real rounds), so buckets are uneven and
// duplicates frequent both within a round and against earlier rounds;
// n is not a power of two, so some endpoints fall out of range.
func TestRMATDedupBucketsAndChunks(t *testing.T) {
	const nCand = 300000
	n := int64(3000)
	al := newRMATAlias(0.57, 0.19, 0.19, 0.05, scaleFor(n))
	tails := make([]int64, nCand)
	heads := make([]int64, nCand)
	drawShardAlias(xrand.NewSeq(5), tails, heads, al)
	checkRMATDedupAgainstReference(t, tails, heads, n, []int64{1 << 30, 70000, 1 << 30})
}
