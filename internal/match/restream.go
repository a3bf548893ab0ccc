package match

import (
	"fmt"
	"runtime"
	"time"

	"datasynth/internal/graph"
	"datasynth/internal/par"
)

// Re-streaming: the paper defers "optimization strategies" to future
// work; the standard one for streaming partitioners (restreamed LDG,
// Nishimura & Ugander KDD'13) is to replay the stream in additional
// passes. Each pass starts with fresh capacity quotas — otherwise every
// group is exactly full after pass one and no node could ever move —
// and scores every node against the *hybrid* assignment: neighbours
// already re-placed this pass use their new group, the rest keep their
// previous-pass group. That gives every node (in particular the early-
// stream nodes that pass one placed almost blind) a full-neighbourhood
// view. Refinement passes iterate hubs first (degree descending): high-
// degree nodes carry the most matrix mass, and re-anchoring them before
// the long tail is what converts the full-information pass into a net
// win — with the original random order, refinement oscillates and
// *degrades* (measured in TestProbe-style sweeps: 0.29 → 0.35 L1
// random vs 0.29 → 0.08 degree-ordered on LFR(5k,16)). Per-pass
// complexity stays O(Σ deg(v) + n·k).
//
// Each pass opens with a rebuild of the joint matrix of the previous
// assignment, sharded across Workers (see rebuildJointMatrix); the
// stream itself is serial.
func (p *SBMPart) PartitionMultiPass(g *graph.Graph, order []int64, extra int) ([]int64, error) {
	if extra < 0 {
		return nil, fmt.Errorf("match: negative refinement passes")
	}
	start := time.Now()
	assign, err := p.Partition(g, order)
	if err != nil {
		return nil, err
	}
	p.PassTimes = append(p.PassTimes[:0], time.Since(start))
	if extra == 0 {
		return assign, nil
	}
	k := p.K
	n := g.N()
	kk := int64(k)

	targetP := p.targetMatrix()
	m := float64(g.M())

	prev := make([]int64, n)
	cur := make([]float64, k*k)
	cnt := make([]int64, k)
	touched := make([]int, 0, k)
	// usedNew is the per-pass quota ledger, zeroed in place each pass.
	usedNew := make([]int64, k)
	refineOrder := DegreeDescOrder(g)

	// Per-pass joint-matrix rebuild shards: resolved once, scratch
	// allocated once and reused across passes.
	rebuildWorkers := rebuildJointWorkers(p.Workers, n)
	var rebuildScratch [][]float64
	if rebuildWorkers > 1 {
		rebuildScratch = make([][]float64, rebuildWorkers-1)
		for i := range rebuildScratch {
			rebuildScratch[i] = make([]float64, k*k)
		}
	}

	for pass := 0; pass < extra; pass++ {
		passStart := time.Now()
		copy(prev, assign)
		for i := range assign {
			assign[i] = Unassigned
		}
		for t := range usedNew {
			usedNew[t] = 0
		}
		// cur starts as the full joint matrix of the previous assignment
		// (each undirected edge counted once; mirrored off-diagonal);
		// rebuilt sharded across workers, exactly — see
		// rebuildJointMatrix.
		rebuildJointMatrix(g, prev, cur, kk, rebuildWorkers, rebuildScratch)
		if err := p.refinePass(g, refineOrder, prev, assign, cur, usedNew, targetP, m, cnt, touched); err != nil {
			return nil, err
		}
		p.PassTimes = append(p.PassTimes, time.Since(passStart))
	}
	return assign, nil
}

// rebuildMinShard is the minimum node range a joint-matrix rebuild
// shard must own: fanning out a tiny graph costs more in k×k scratch
// zeroing and merging than the edge scan itself.
const rebuildMinShard = 4096

// rebuildJointWorkers resolves how many shards the per-pass rebuild
// uses: the partitioner's worker bound, capped by the shard floor.
func rebuildJointWorkers(workers int, n int64) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if max := n / rebuildMinShard; int64(workers) > max {
		workers = int(max)
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// rebuildJointMatrix recomputes into cur the k×k joint matrix of
// assignment prev: each undirected edge counted once (owned by its
// lower endpoint), mirrored off-diagonal. The scan shards freely over
// node ranges because every increment is integral — float64 addition
// of integers below 2^53 is exact and associative — so the shard-local
// partial matrices sum to bit-identical totals under any shard
// decomposition: the serial scan and every worker count produce the
// same bytes (locked by TestRebuildJointMatrixSharded). Shard s owns
// the contiguous range [n·s/W, n·(s+1)/W); shard 0 accumulates
// directly into cur on the calling goroutine, shards 1…W-1 into the
// caller-provided scratch matrices, merged in shard order.
func rebuildJointMatrix(g *graph.Graph, prev []int64, cur []float64, kk int64, workers int, scratch [][]float64) {
	for i := range cur {
		cur[i] = 0
	}
	n := g.N()
	if workers <= 1 {
		rebuildJointRange(g, prev, cur, kk, 0, n)
		return
	}
	for s := 1; s < workers; s++ {
		local := scratch[s-1]
		for i := range local {
			local[i] = 0
		}
	}
	par.Workers(workers, func(s int) {
		if s == 0 {
			rebuildJointRange(g, prev, cur, kk, 0, n/int64(workers))
			return
		}
		lo := n * int64(s) / int64(workers)
		hi := n * int64(s+1) / int64(workers)
		rebuildJointRange(g, prev, scratch[s-1], kk, lo, hi)
	})
	for _, local := range scratch[:workers-1] {
		for i, v := range local {
			cur[i] += v
		}
	}
}

// rebuildJointRange accumulates the joint-matrix contributions of the
// edges owned by nodes in [lo, hi).
func rebuildJointRange(g *graph.Graph, prev []int64, cur []float64, kk, lo, hi int64) {
	for v := lo; v < hi; v++ {
		for _, u := range g.Neighbors(v) {
			if u <= v {
				continue
			}
			a, b := prev[v], prev[u]
			cur[a*kk+b]++
			if a != b {
				cur[b*kk+a]++
			}
		}
	}
}

// refinePass is one re-streaming pass over refineOrder. assign
// arrives all-Unassigned and usedNew all-zero; cur holds the joint
// matrix of prev. Each node vacates its previous contributions from
// cur, is placed, and re-adds them under its new group.
func (p *SBMPart) refinePass(g *graph.Graph, refineOrder, prev, assign []int64, cur []float64, usedNew []int64, targetP []float64, m float64, cnt []int64, touched []int) error {
	kk := int64(p.K)
	for _, v := range refineOrder {
		// Neighbour groups under the hybrid assignment: the new group
		// if already re-placed this pass, else the previous one.
		touched = touched[:0]
		for _, u := range g.Neighbors(v) {
			if u == v {
				continue
			}
			a := assign[u]
			if a == Unassigned {
				a = prev[u]
			}
			if cnt[a] == 0 {
				touched = append(touched, int(a))
			}
			cnt[a]++
		}
		old := prev[v]
		for _, j := range touched {
			c := float64(cnt[j])
			cur[old*kk+int64(j)] -= c
			if int64(j) != old {
				cur[int64(j)*kk+old] -= c
			}
		}
		best, err := p.refinePlace(v, old, cur, targetP, m, usedNew, cnt, touched)
		if err != nil {
			return err
		}
		for _, j := range touched {
			c := float64(cnt[j])
			cur[best*kk+int64(j)] += c
			if int64(j) != best {
				cur[int64(j)*kk+best] += c
			}
			cnt[j] = 0
		}
		usedNew[best]++
		assign[v] = best
	}
	return nil
}

// refinePlace picks the refinement target group for node v: the
// Frobenius score against the full-matrix target, or — for isolated
// nodes — the previous group if quota allows, else the first feasible
// group by index.
func (p *SBMPart) refinePlace(v, old int64, cur, targetP []float64, m float64, usedNew, cnt []int64, touched []int) (int64, error) {
	var best int64
	if len(touched) == 0 {
		// Keep isolated nodes in place if quota allows.
		best = old
		if usedNew[old] >= p.Capacities[old] {
			best = -1
			for t := 0; t < p.K; t++ {
				if usedNew[t] < p.Capacities[t] {
					best = int64(t)
					break
				}
			}
		}
	} else {
		best = p.placeByFrobenius(cur, targetP, m, usedNew, cnt, touched)
	}
	if best < 0 {
		return -1, fmt.Errorf("match: refinement pass has no feasible group for node %d", v)
	}
	return best, nil
}
