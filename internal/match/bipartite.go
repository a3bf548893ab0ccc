package match

import (
	"fmt"
	"math"

	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Bipartite SBM-Part: the paper notes that "a small variation of
// SBM-Part can also be applied to bi-partite graphs, since the SBM can
// model this type of graphs as well. If the bi-partite graph is between
// two different node types, the input would contain two PTs instead of
// one." This file implements that variation for edge types such as
// Person—creates—Message where both endpoint types carry a correlated
// property.

// BipartiteTarget is a joint distribution P(X,Y) where X is the tail
// property value (kT categories) and Y the head value (kH categories):
// the probability that a uniformly random edge carries values (X, Y).
// Unlike stats.Joint it is not symmetric.
type BipartiteTarget struct {
	KT, KH int
	P      []float64 // row-major kT×kH
}

// NewBipartiteTarget allocates a zero target.
func NewBipartiteTarget(kt, kh int) *BipartiteTarget {
	return &BipartiteTarget{KT: kt, KH: kh, P: make([]float64, kt*kh)}
}

// At returns P(X=a, Y=b).
func (t *BipartiteTarget) At(a, b int) float64 { return t.P[a*t.KH+b] }

// Set assigns P(X=a, Y=b).
func (t *BipartiteTarget) Set(a, b int, p float64) { t.P[a*t.KH+b] = p }

// Normalize rescales the mass to 1.
func (t *BipartiteTarget) Normalize() {
	var sum float64
	for _, p := range t.P {
		sum += p
	}
	if sum == 0 {
		return
	}
	for i := range t.P {
		t.P[i] /= sum
	}
}

// Validate checks the target is a proper distribution.
func (t *BipartiteTarget) Validate() error {
	var sum float64
	for i, p := range t.P {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("match: bipartite target cell %d = %v invalid", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("match: bipartite target mass %v, want 1", sum)
	}
	return nil
}

// EmpiricalBipartite measures P(X,Y) from an edge table and endpoint
// labellings.
func EmpiricalBipartite(et *table.EdgeTable, tailLabels, headLabels []int64, kt, kh int) (*BipartiteTarget, error) {
	j := NewBipartiteTarget(kt, kh)
	m := et.Len()
	if m == 0 {
		return j, nil
	}
	w := 1 / float64(m)
	for e := int64(0); e < m; e++ {
		t, h := et.Tail[e], et.Head[e]
		if t < 0 || t >= int64(len(tailLabels)) || h < 0 || h >= int64(len(headLabels)) {
			return nil, fmt.Errorf("match: edge %d endpoints outside labellings", e)
		}
		lt, lh := tailLabels[t], headLabels[h]
		if lt < 0 || lt >= int64(kt) || lh < 0 || lh >= int64(kh) {
			return nil, fmt.Errorf("match: edge %d labels (%d,%d) out of range", e, lt, lh)
		}
		j.P[lt*int64(kh)+lh] += w
	}
	return j, nil
}

// BipartiteResult reports a completed bipartite matching.
type BipartiteResult struct {
	TailAssign, HeadAssign   []int64
	TailMapping, HeadMapping []int64
	Observed                 *BipartiteTarget
}

// MatchBipartite partitions both endpoint domains of a bipartite edge
// table so that the observed P'(X,Y) approaches the target.
// tailRowLabels/headRowLabels are the two PTs reduced to value indices;
// their frequencies set the group capacities.
func MatchBipartite(et *table.EdgeTable, nTail, nHead int64, tailRowLabels, headRowLabels []int64, target *BipartiteTarget, opt Options) (*BipartiteResult, error) {
	if err := et.Validate(nTail, nHead); err != nil {
		return nil, err
	}
	if err := target.Validate(); err != nil {
		return nil, err
	}
	kt, kh := target.KT, target.KH
	capT, err := stats.Frequencies(tailRowLabels, kt)
	if err != nil {
		return nil, fmt.Errorf("match: tail labels: %w", err)
	}
	capH, err := stats.Frequencies(headRowLabels, kh)
	if err != nil {
		return nil, fmt.Errorf("match: head labels: %w", err)
	}
	if int64(len(tailRowLabels)) < nTail {
		return nil, fmt.Errorf("match: %d tail rows for %d tail nodes", len(tailRowLabels), nTail)
	}
	if int64(len(headRowLabels)) < nHead {
		return nil, fmt.Errorf("match: %d head rows for %d head nodes", len(headRowLabels), nHead)
	}

	// Adjacency: tail -> heads and head -> tails (CSR over the ET).
	tailAdj := buildAdj(et.Tail, et.Head, nTail)
	headAdj := buildAdj(et.Head, et.Tail, nHead)

	// Target probabilities; scaled to the running placed-edge count at
	// each placement (see SBMPart for the proportional-target rationale).
	tw := make([]float64, kt*kh)
	copy(tw, target.P)
	cur := make([]float64, kt*kh)

	assignT := make([]int64, nTail)
	assignH := make([]int64, nHead)
	for i := range assignT {
		assignT[i] = Unassigned
	}
	for i := range assignH {
		assignH[i] = Unassigned
	}
	usedT := make([]int64, kt)
	usedH := make([]int64, kh)

	order := opt.Order
	if order == nil {
		order = RandomOrder(nTail+nHead, opt.Seed)
	}
	if int64(len(order)) != nTail+nHead {
		return nil, fmt.Errorf("match: order has %d entries for %d nodes", len(order), nTail+nHead)
	}

	st := &bipState{
		nTail: nTail, kt: kt, kh: kh,
		tailAdj: tailAdj, headAdj: headAdj,
		tw: tw, cur: cur,
		assignT: assignT, assignH: assignH,
		usedT: usedT, usedH: usedH,
		capT: capT, capH: capH,
		order: order, balance: opt.Balance,
		rnd: xrand.NewStream(opt.Seed).DeriveStream("bip-unconstrained"),
	}
	if err := st.run(); err != nil {
		return nil, err
	}

	seedT := xrand.NewStream(opt.Seed).DeriveStream("bip-tail").Seed()
	seedH := xrand.NewStream(opt.Seed).DeriveStream("bip-head").Seed()
	mapT, err := BuildMapping(assignT, tailRowLabels, kt, seedT)
	if err != nil {
		return nil, err
	}
	mapH, err := BuildMapping(assignH, headRowLabels, kh, seedH)
	if err != nil {
		return nil, err
	}
	obs, err := EmpiricalBipartite(et, assignT, assignH, kt, kh)
	if err != nil {
		return nil, err
	}
	return &BipartiteResult{
		TailAssign: assignT, HeadAssign: assignH,
		TailMapping: mapT, HeadMapping: mapH,
		Observed: obs,
	}, nil
}

// bipState is the streaming state of one bipartite matching run.
type bipState struct {
	nTail            int64
	kt, kh           int
	tailAdj, headAdj *adj
	tw               []float64 // target P, row-major kt×kh
	cur              []float64 // placed-edge counts per (tail,head) group pair
	placedEdges      float64
	assignT, assignH []int64
	usedT, usedH     []int64
	capT, capH       []int64
	order            []int64 // combined stream: tails then heads offset by nTail
	balance          bool
	rnd              xrand.Stream
}

// run places the combined stream one node at a time: a tail node
// (x < nTail) is scored against its placed head neighbours, a head
// node (x >= nTail) against its placed tail neighbours.
func (s *bipState) run() error {
	kt, kh := s.kt, s.kh
	cntH := make([]int64, kh)
	cntT := make([]int64, kt)
	var touched []int
	// Scratch for pickGroup's per-placement scores, sized for either
	// side and reused across the whole stream; the delta closures are
	// likewise hoisted out of the loop (they read the loop state through
	// captured variables), so placements allocate nothing per node.
	scratch := make([]float64, max(kt, kh))
	var scale float64
	tailDelta := func(t int) float64 {
		var d float64
		for _, j := range touched {
			c := float64(cntH[j])
			a := s.cur[t*kh+j] - scale*s.tw[t*kh+j]
			d += c * (2*a + c)
		}
		return d
	}
	headDelta := func(h int) float64 {
		var d float64
		for _, i := range touched {
			c := float64(cntT[i])
			a := s.cur[i*kh+h] - scale*s.tw[i*kh+h]
			d += c * (2*a + c)
		}
		return d
	}

	for _, x := range s.order {
		if x < s.nTail {
			v := x
			// Count placed head neighbours per head group.
			touched = touched[:0]
			for _, u := range s.tailAdj.neighbors(v) {
				if a := s.assignH[u]; a != Unassigned {
					if cntH[a] == 0 {
						touched = append(touched, int(a))
					}
					cntH[a]++
				}
			}
			var cv float64
			for _, j := range touched {
				cv += float64(cntH[j])
			}
			scale = s.placedEdges + cv
			best := pickGroup(kt, s.usedT, s.capT, tailDelta, len(touched) > 0, s.balance, s.rnd, x, scratch)
			if best < 0 {
				return fmt.Errorf("match: no feasible tail group for node %d", v)
			}
			for _, j := range touched {
				s.placedEdges += float64(cntH[j])
				s.cur[int(best)*kh+j] += float64(cntH[j])
				cntH[j] = 0
			}
			s.assignT[v] = best
			s.usedT[best]++
		} else {
			v := x - s.nTail
			touched = touched[:0]
			for _, u := range s.headAdj.neighbors(v) {
				if a := s.assignT[u]; a != Unassigned {
					if cntT[a] == 0 {
						touched = append(touched, int(a))
					}
					cntT[a]++
				}
			}
			var cv float64
			for _, i := range touched {
				cv += float64(cntT[i])
			}
			scale = s.placedEdges + cv
			best := pickGroup(kh, s.usedH, s.capH, headDelta, len(touched) > 0, s.balance, s.rnd, x, scratch)
			if best < 0 {
				return fmt.Errorf("match: no feasible head group for node %d", v)
			}
			for _, i := range touched {
				s.placedEdges += float64(cntT[i])
				s.cur[i*kh+int(best)] += float64(cntT[i])
				cntT[i] = 0
			}
			s.assignH[v] = best
			s.usedH[best]++
		}
	}
	return nil
}

// pickGroup applies SBM-Part's placement rule over one side's groups.
// Neighbour-less nodes are placed pseudo-randomly weighted by remaining
// capacity (see SBMPart.placeUnconstrained for the rationale). scratch
// must hold at least k entries; it is caller-owned so the per-placement
// score buffer is reused across the whole stream.
func pickGroup(k int, used, caps []int64, delta func(t int) float64, hasNeighbors, balance bool, rnd xrand.Stream, node int64, scratch []float64) int64 {
	if !hasNeighbors {
		var totalRem int64
		for t := 0; t < k; t++ {
			if r := caps[t] - used[t]; r > 0 {
				totalRem += r
			}
		}
		if totalRem <= 0 {
			return -1
		}
		pick := rnd.Intn(node, totalRem)
		for t := 0; t < k; t++ {
			if r := caps[t] - used[t]; r > 0 {
				if pick < r {
					return int64(t)
				}
				pick -= r
			}
		}
		return -1
	}
	deltas := scratch[:k]
	maxDelta := math.Inf(-1)
	feasible := false
	for t := 0; t < k; t++ {
		if used[t] >= caps[t] {
			deltas[t] = math.NaN()
			continue
		}
		feasible = true
		deltas[t] = delta(t)
		if deltas[t] > maxDelta {
			maxDelta = deltas[t]
		}
	}
	if !feasible {
		return -1
	}
	best := int64(-1)
	if balance {
		bestScore := math.Inf(-1)
		var bestRem float64
		for t := 0; t < k; t++ {
			if math.IsNaN(deltas[t]) {
				continue
			}
			rem := 1 - float64(used[t])/float64(caps[t])
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
			if math.IsNaN(deltas[t]) {
				continue
			}
			rem := 1 - float64(used[t])/float64(caps[t])
			if deltas[t] < bestDelta || (deltas[t] == bestDelta && rem > bestRem) {
				bestDelta = deltas[t]
				bestRem = rem
				best = int64(t)
			}
		}
	}
	return best
}

// adj is a minimal CSR over one direction of a bipartite edge table.
type adj struct {
	offs []int64
	dst  []int64
}

func buildAdj(src, dst []int64, n int64) *adj {
	deg := make([]int64, n)
	for _, s := range src {
		deg[s]++
	}
	offs := make([]int64, n+1)
	for v := int64(0); v < n; v++ {
		offs[v+1] = offs[v] + deg[v]
	}
	out := make([]int64, offs[n])
	cur := make([]int64, n)
	copy(cur, offs[:n])
	for i, s := range src {
		out[cur[s]] = dst[i]
		cur[s]++
	}
	return &adj{offs: offs, dst: out}
}

func (a *adj) neighbors(v int64) []int64 { return a.dst[a.offs[v]:a.offs[v+1]] }
