// Package match implements DataSynth's property-to-node matching — the
// paper's central contribution (Section 4.2, "Graph Matching").
//
// The problem: given a Property Table p whose rows carry one of k
// values, a generated graph structure g, and a user-supplied joint
// probability distribution P(X,Y) over the values at the endpoints of a
// random edge, find a mapping f from structure-node ids to property-row
// ids such that the observed P'(X,Y) after applying f is as close as
// possible to P(X,Y).
//
// Following the paper, the problem is recast through the Stochastic
// Block Model as streaming graph partitioning: classify the nodes of g
// into k groups with sizes Q = {q_0,…,q_{k-1}} (the value frequencies
// in p) such that the inter-group edge counts approach the target
// matrix W derived from P(X,Y). The solver, SBM-Part, is a variation of
// the LDG streaming partitioner: a node arrives with its edges and is
// placed into the group t minimising the Frobenius distance
// ||W_t − W||²_F, balanced by the remaining capacity (1 − s_t/q_t).
package match

import (
	"fmt"
	"math"
	"time"

	"datasynth/internal/graph"
	"datasynth/internal/stats"
	"datasynth/internal/xrand"
)

// Unassigned marks a node not yet placed in a group.
const Unassigned = int64(-1)

// SBMPart is the paper's streaming property-to-node partitioner.
type SBMPart struct {
	// K is the number of distinct property values (groups).
	K int
	// Target is the desired joint distribution P(X,Y); it must be a
	// proper distribution over K values.
	Target *stats.Joint
	// Capacities holds q_t, the number of property rows carrying value
	// t; group t accepts at most Capacities[t] nodes.
	Capacities []int64
	// Balance applies LDG's remaining-capacity factor (1 − s_t/q_t) to
	// the placement score. The paper uses true; false is the pure-greedy
	// ablation.
	Balance bool
	// Seed drives the placement of nodes that arrive with no already-
	// placed neighbours: they are assigned pseudo-randomly, weighted by
	// remaining capacity, so no group soaks up all early-stream nodes.
	Seed uint64
	// Window is not read by this package.
	//
	// Deprecated: Partition ignores Window and always runs the one
	// serial stream. The field exists only so the benchmark harness in
	// perfbench/ builds; it goes when that harness's windowed lane is
	// retired.
	Window int
	// Workers bounds the parallel joint-matrix rebuild that opens every
	// refinement pass of PartitionMultiPass; 0 means NumCPU, 1 rebuilds
	// serially. The partition is byte-identical at every count.
	Workers int
	// FinalTarget scores placements against the *final* absolute target
	// matrix W = m·P instead of the default proportional target
	// W(s) = m_placed·P. The final-target variant reads the paper most
	// literally but suffers a systematic early-stream bias: while every
	// cell is far below its final count, the largest-deficit diagonal
	// cell attracts nodes regardless of their neighbourhoods. Scaling
	// the target with the number of edges placed so far keeps the
	// comparison in probability space — the space P(X,Y) is actually
	// defined in (the paper's footnote 1 notes absolute counts are used
	// merely "for convenience") — and is self-correcting. Kept as an
	// ablation switch; see BenchmarkAblationTarget.
	FinalTarget bool

	// PassTimes records the wall time of every streaming pass of the
	// most recent PartitionMultiPass call: index 0 is the initial
	// stream, each later entry one refinement pass. Reset at the start
	// of every call; callers plumb it into timing reports so the cost
	// of refinement is visible end to end.
	PassTimes []time.Duration

	// deltas is per-placement scratch for placeByFrobenius, hoisted out
	// of the per-node loop so streaming a graph allocates nothing per
	// node. Its presence makes an SBMPart instance safe for repeated
	// but not concurrent Partition calls.
	deltas []float64
}

// NewSBMPart returns a balanced SBM-Part instance.
func NewSBMPart(target *stats.Joint, capacities []int64) (*SBMPart, error) {
	if target == nil {
		return nil, fmt.Errorf("match: nil target distribution")
	}
	if len(capacities) != target.K {
		return nil, fmt.Errorf("match: %d capacities for %d values", len(capacities), target.K)
	}
	if err := target.Validate(); err != nil {
		return nil, fmt.Errorf("match: invalid target: %w", err)
	}
	for t, q := range capacities {
		if q < 0 {
			return nil, fmt.Errorf("match: negative capacity for group %d", t)
		}
	}
	return &SBMPart{K: target.K, Target: target, Capacities: capacities, Balance: true}, nil
}

// Partition streams the nodes of g in the given order and returns the
// group assignment of every node. The order must be a permutation of
// [0, g.N()); the total capacity must be at least g.N().
//
// Placement of node v:
//  1. Count v's already-placed neighbours per group: cnt[j]; the node
//     contributes cv = Σ_j cnt[j] new edges.
//  2. For each feasible group t (s_t < q_t) compute the change in
//     ||W_cur − W(s)||²_F caused by adding cnt[j] edges to cells (t,j),
//     where W(s) = (m_placed + cv)·P is the running proportional target
//     (or the final m·P when FinalTarget is set):
//     Δ_t = Σ_j cnt[j]·(2·(W_cur[t][j] − W(s)[t][j]) + cnt[j]).
//  3. Convert to a gain G_t = maxΔ − Δ_t and pick
//     argmax_t G_t·(1 − s_t/q_t)   (the LDG balancing rule);
//     without Balance, pick argmin_t Δ_t directly.
//     Ties break toward the group with the most remaining capacity.
//
// A node with no placed neighbours leaves the Frobenius norm unchanged
// for every t, so it is placed pseudo-randomly weighted by remaining
// capacity.
func (p *SBMPart) Partition(g *graph.Graph, order []int64) ([]int64, error) {
	n := g.N()
	if int64(len(order)) != n {
		return nil, fmt.Errorf("match: order has %d entries for %d nodes", len(order), n)
	}
	var totalCap int64
	for _, q := range p.Capacities {
		totalCap += q
	}
	if totalCap < n {
		return nil, fmt.Errorf("match: total capacity %d below node count %d", totalCap, n)
	}

	k := p.K
	// Target probabilities and current inter-group edge counts, dense
	// k×k symmetric (both (i,j) and (j,i) mirrored so row scans are
	// contiguous). The probability matrix is scaled to the running edge
	// count at each placement (see the method comment).
	targetP := p.targetMatrix()
	m := float64(g.M())
	cur := make([]float64, k*k)
	var placedEdges float64

	assign := make([]int64, n)
	for i := range assign {
		assign[i] = Unassigned
	}
	used := make([]int64, k)

	cnt := make([]int64, k)      // neighbour count per group, sparse-reset
	touched := make([]int, 0, k) // groups with cnt > 0
	seenOrder := make([]bool, n)
	rnd := xrand.NewStream(p.Seed).DeriveStream("sbm-unconstrained")

	for _, v := range order {
		if v < 0 || v >= n || seenOrder[v] {
			return nil, fmt.Errorf("match: order is not a permutation (node %d)", v)
		}
		seenOrder[v] = true

		// 1. Neighbour groups.
		touched = touched[:0]
		for _, u := range g.Neighbors(v) {
			if u == v {
				continue
			}
			if a := assign[u]; a != Unassigned {
				if cnt[a] == 0 {
					touched = append(touched, int(a))
				}
				cnt[a]++
			}
		}

		best := int64(-1)
		if len(touched) == 0 {
			best = p.placeUnconstrained(used, rnd, v)
		} else {
			var cv float64
			for _, j := range touched {
				cv += float64(cnt[j])
			}
			scale := placedEdges + cv
			if p.FinalTarget {
				scale = m
			}
			best = p.placeByFrobenius(cur, targetP, scale, used, cnt, touched)
		}
		if best < 0 {
			return nil, fmt.Errorf("match: no feasible group for node %d", v)
		}

		// Commit: update current counts and capacity.
		for _, j := range touched {
			c := float64(cnt[j])
			placedEdges += c
			cur[best*int64(k)+int64(j)] += c
			if int64(j) != best {
				cur[int64(j)*int64(k)+best] += c
			}
			cnt[j] = 0
		}
		assign[v] = best
		used[best]++
	}
	return assign, nil
}

// targetMatrix expands the target joint into a dense k×k symmetric
// probability matrix (both (i,j) and (j,i) mirrored so row scans are
// contiguous).
func (p *SBMPart) targetMatrix() []float64 {
	k := p.K
	targetP := make([]float64, k*k)
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			w := p.Target.At(a, b)
			targetP[a*k+b] = w
			targetP[b*k+a] = w
		}
	}
	return targetP
}

// placeUnconstrained assigns a neighbour-less node pseudo-randomly,
// weighted by remaining capacity q_t − s_t. A deterministic argmax
// would funnel every early-stream node into the largest group, biasing
// the match; weighted sampling keeps expected fill proportional.
func (p *SBMPart) placeUnconstrained(used []int64, rnd xrand.Stream, v int64) int64 {
	var totalRem int64
	for t := 0; t < p.K; t++ {
		if r := p.Capacities[t] - used[t]; r > 0 {
			totalRem += r
		}
	}
	if totalRem <= 0 {
		return -1
	}
	pick := rnd.Intn(v, totalRem)
	for t := 0; t < p.K; t++ {
		if r := p.Capacities[t] - used[t]; r > 0 {
			if pick < r {
				return int64(t)
			}
			pick -= r
		}
	}
	return -1
}

// placeByFrobenius scores every feasible group by the incremental
// change in squared Frobenius distance against the scaled target and
// applies the balancing rule.
func (p *SBMPart) placeByFrobenius(cur, targetP []float64, scale float64, used, cnt []int64, touched []int) int64 {
	k := p.K
	// Pass 1: compute Δ_t for every group. The loops run j-major: both
	// matrices are symmetric, so row j holds the (t, j) cells for all t
	// contiguously, turning the hot inner loop into a unit-stride
	// fused-multiply-add over k cells — no gathers, no bounds checks.
	// The per-t accumulation still visits touched groups in the same
	// order as a t-major scan would, so the floating-point sums (and
	// with them every placement decision) are bit-identical. The
	// scratch lives on the instance: one allocation per partitioner,
	// not one per streamed node.
	if cap(p.deltas) < k {
		p.deltas = make([]float64, k)
	}
	deltas := p.deltas[:k]
	for t := range deltas {
		deltas[t] = 0
	}
	for _, j := range touched {
		c := float64(cnt[j])
		cj := cur[j*k : j*k+k]
		tj := targetP[j*k : j*k+k]
		for t, cv := range cj {
			a := cv - scale*tj[t]
			deltas[t] += c * (2*a + c)
		}
	}
	feasible := false
	maxDelta := math.Inf(-1)
	for t := 0; t < k; t++ {
		if used[t] >= p.Capacities[t] {
			continue
		}
		feasible = true
		if deltas[t] > maxDelta {
			maxDelta = deltas[t]
		}
	}
	if !feasible {
		return -1
	}
	best := int64(-1)
	if p.Balance {
		bestScore := math.Inf(-1)
		var bestRem float64
		for t := 0; t < k; t++ {
			if used[t] >= p.Capacities[t] {
				continue
			}
			rem := 1 - float64(used[t])/float64(p.Capacities[t])
			score := (maxDelta - deltas[t]) * rem
			if score > bestScore || (score == bestScore && rem > bestRem) {
				bestScore = score
				bestRem = rem
				best = int64(t)
			}
		}
	} else {
		bestDelta := math.Inf(1)
		var bestRem float64
		for t := 0; t < k; t++ {
			if used[t] >= p.Capacities[t] {
				continue
			}
			rem := 1 - float64(used[t])/float64(p.Capacities[t])
			if deltas[t] < bestDelta || (deltas[t] == bestDelta && rem > bestRem) {
				bestDelta = deltas[t]
				bestRem = rem
				best = int64(t)
			}
		}
	}
	return best
}
