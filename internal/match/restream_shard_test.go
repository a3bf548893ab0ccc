package match

import (
	"math"
	"runtime"
	"testing"
)

// TestRebuildJointMatrixSharded: the sharded per-pass joint-matrix
// rebuild must be bit-identical to the serial scan at every worker
// count — the increments are integral, so float64 summation is exact
// in any shard decomposition.
func TestRebuildJointMatrixSharded(t *testing.T) {
	const n, k = 4000, 16
	g, target, sizes := lfrFixture(t, n, k)

	// A realistic assignment to rebuild from: the first streaming pass.
	part, err := NewSBMPart(target, sizes)
	if err != nil {
		t.Fatal(err)
	}
	part.Seed = 99
	assign, err := part.Partition(g, RandomOrder(g.N(), 5))
	if err != nil {
		t.Fatal(err)
	}

	kk := int64(k)
	ref := make([]float64, k*k)
	rebuildJointMatrix(g, assign, ref, kk, 1, nil)

	// Sanity: the matrix must account for every edge exactly once.
	var diag, offdiag float64
	for a := int64(0); a < kk; a++ {
		for b := int64(0); b < kk; b++ {
			if a == b {
				diag += ref[a*kk+b]
			} else {
				offdiag += ref[a*kk+b]
			}
		}
	}
	if got := diag + offdiag/2; got != float64(g.M()) {
		t.Fatalf("serial rebuild counts %v edges, graph has %d", got, g.M())
	}

	for _, workers := range []int{2, 3, 4, 7, runtime.NumCPU() + 1} {
		scratch := make([][]float64, workers-1)
		for i := range scratch {
			scratch[i] = make([]float64, k*k)
		}
		got := make([]float64, k*k)
		rebuildJointMatrix(g, assign, got, kk, workers, scratch)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: cell %d = %v, serial %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestRebuildJointWorkersGate: tiny graphs stay serial (the fan-out
// would cost more than the scan), explicit bounds are honoured, and a
// zero bound resolves to the machine width capped by the shard floor.
func TestRebuildJointWorkersGate(t *testing.T) {
	if got := rebuildJointWorkers(8, 100); got != 1 {
		t.Errorf("100-node graph resolved %d rebuild workers, want 1", got)
	}
	if got := rebuildJointWorkers(3, 4*rebuildMinShard); got != 3 {
		t.Errorf("explicit 3 workers on a large graph resolved %d", got)
	}
	if got := rebuildJointWorkers(8, 2*rebuildMinShard); got != 2 {
		t.Errorf("shard floor did not cap: got %d, want 2", got)
	}
}

// TestMultiPassShardedRebuildByteIdentical: PartitionMultiPass at a
// worker count that engages the sharded rebuild must reproduce the
// fully serial refinement byte for byte. The fixture exceeds the
// shard floor so the rebuild actually shards.
func TestMultiPassShardedRebuildByteIdentical(t *testing.T) {
	const n, k = 2 * rebuildMinShard, 8
	g, target, sizes := lfrFixture(t, n, k)
	ref := multiPassWith(t, g, target, sizes, 2, 1)
	for _, workers := range []int{2, 4} {
		got := multiPassWith(t, g, target, sizes, 2, workers)
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("workers=%d: node %d assigned %d, serial %d", workers, v, got[v], ref[v])
			}
		}
	}
}
