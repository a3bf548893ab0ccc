package match

import (
	"fmt"
	"time"

	"datasynth/internal/graph"
	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// This file implements the end-to-end matching operators the DataSynth
// engine calls: they turn a group assignment into the mapping function
// f from structure-node ids to property-row ids (paper: "the function f
// is built by assigning to each node of g an id out of those of p that
// have the value corresponding to the partition the node has been
// assigned").

// BuildMapping constructs f: structure node id -> property row id.
// assign[v] is v's group; rowLabels[r] is the value of property row r.
// Within each group, rows are handed out in a pseudo-random (but
// deterministic) order so that row ids carry no structural bias.
func BuildMapping(assign []int64, rowLabels []int64, k int, seed uint64) ([]int64, error) {
	if len(assign) > len(rowLabels) {
		return nil, fmt.Errorf("match: %d nodes but only %d property rows", len(assign), len(rowLabels))
	}
	// Bucket property rows by value.
	buckets := make([][]int64, k)
	for r, l := range rowLabels {
		if l < 0 || l >= int64(k) {
			return nil, fmt.Errorf("match: row %d has label %d outside [0,%d)", r, l, k)
		}
		buckets[l] = append(buckets[l], int64(r))
	}
	// Shuffle each bucket deterministically.
	s := xrand.NewStream(seed)
	for t := 0; t < k; t++ {
		b := buckets[t]
		sub := s.DeriveStream(fmt.Sprintf("bucket-%d", t))
		for i := len(b) - 1; i > 0; i-- {
			j := sub.Intn(int64(i), int64(i)+1)
			b[i], b[j] = b[j], b[i]
		}
	}
	next := make([]int, k)
	f := make([]int64, len(assign))
	for v, t := range assign {
		if t < 0 || t >= int64(k) {
			return nil, fmt.Errorf("match: node %d unassigned", v)
		}
		if next[t] >= len(buckets[t]) {
			return nil, fmt.Errorf("match: group %d over capacity (%d rows)", t, len(buckets[t]))
		}
		f[v] = buckets[t][next[t]]
		next[t]++
	}
	return f, nil
}

// Options configures MatchProperty.
type Options struct {
	// Seed drives the stream order and bucket shuffles.
	Seed uint64
	// Order overrides the node stream order; nil means pseudo-random
	// (the paper: "We sent the nodes to SBM-Part randomly").
	Order []int64
	// Balance toggles the LDG capacity factor (default true).
	Balance bool
	// Passes adds re-streaming refinement passes (see
	// SBMPart.PartitionMultiPass).
	Passes int
	// Workers bounds the parallel joint-matrix rebuild of the
	// refinement passes (0 = NumCPU, 1 = serial). The partition is
	// byte-identical at every worker count.
	Workers int
}

// DefaultWindow is not read by this package.
//
// Deprecated: Partition ignores SBMPart.Window, whatever its value.
// The name exists only so the benchmark harness in perfbench/ builds;
// it goes with SBMPart.Window when that harness's windowed lane is
// retired.
const DefaultWindow = 2048

// DefaultOptions returns the paper's configuration.
func DefaultOptions(seed uint64) Options {
	return Options{Seed: seed, Balance: true}
}

// Result reports a completed matching.
type Result struct {
	// Mapping is f: structure node id -> property row id.
	Mapping []int64
	// Assign is the group (value) each structure node received.
	Assign []int64
	// Observed is the empirical joint P'(X,Y) after matching.
	Observed *stats.Joint
	// PartitionTime is the wall time spent inside SBM-Part itself (the
	// paper's timing claim), isolated from graph build and mapping
	// construction — plumbed out so callers can report where a match
	// task's critical-path time actually goes.
	PartitionTime time.Duration
	// PassTimes breaks PartitionTime down per streaming pass: index 0
	// is the initial stream, each later entry one re-streaming
	// refinement pass (a single-pass match has exactly one entry).
	// Callers feed this into critical-path reports so refinement cost
	// is visible end to end.
	PassTimes []time.Duration
}

// MatchProperty runs the paper's full matching task for a monopartite
// edge type: given the structure et over n nodes, the property-row
// labels (the PT reduced to value indices), and the target P(X,Y),
// it partitions the structure with SBM-Part and builds the mapping.
// The EdgeTable is not modified; apply Result.Mapping with et.Remap to
// materialise the match.
func MatchProperty(et *table.EdgeTable, n int64, rowLabels []int64, target *stats.Joint, opt Options) (*Result, error) {
	gb := graph.GetBuilder()
	defer graph.PutBuilder(gb)
	g, err := gb.FromEdgeTable(et, n)
	if err != nil {
		return nil, err
	}
	capacities, err := stats.Frequencies(rowLabels, target.K)
	if err != nil {
		return nil, err
	}
	part, err := NewSBMPart(target, capacities)
	if err != nil {
		return nil, err
	}
	part.Balance = opt.Balance
	part.Seed = opt.Seed
	part.Workers = opt.Workers
	order := opt.Order
	if order == nil {
		order = RandomOrder(n, opt.Seed)
	}
	start := time.Now()
	var assign []int64
	passTimes := []time.Duration(nil)
	if opt.Passes > 0 {
		assign, err = part.PartitionMultiPass(g, order, opt.Passes)
		passTimes = append(passTimes, part.PassTimes...)
	} else {
		assign, err = part.Partition(g, order)
	}
	partitionTime := time.Since(start)
	if opt.Passes <= 0 {
		passTimes = append(passTimes, partitionTime)
	}
	if err != nil {
		return nil, err
	}
	mapping, err := BuildMapping(assign, rowLabels, target.K, opt.Seed)
	if err != nil {
		return nil, err
	}
	observed, err := stats.EmpiricalJoint(et, assign, target.K)
	if err != nil {
		return nil, err
	}
	return &Result{Mapping: mapping, Assign: assign, Observed: observed, PartitionTime: partitionTime, PassTimes: passTimes}, nil
}

// RandomMatch maps structure nodes to property rows uniformly at
// random — the paper's rule when an edge type has no property-structure
// correlation ("the matching is done randomly").
func RandomMatch(n int64, numRows int64, seed uint64) ([]int64, error) {
	if numRows < n {
		return nil, fmt.Errorf("match: %d nodes but only %d property rows", n, numRows)
	}
	s := xrand.NewStream(seed)
	f := make([]int64, n)
	for v := int64(0); v < n; v++ {
		f[v] = s.Perm(v, numRows)
	}
	return f, nil
}

// RandomOrder returns a pseudo-random permutation of [0, n).
func RandomOrder(n int64, seed uint64) []int64 {
	s := xrand.NewStream(seed).DeriveStream("stream-order")
	order := make([]int64, n)
	for i := range order {
		order[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i, i+1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// BFSOrder returns nodes in breadth-first order from a pseudo-random
// root per component — an ablation stream order with high locality.
func BFSOrder(g *graph.Graph, seed uint64) []int64 {
	n := g.N()
	order := make([]int64, 0, n)
	visited := make([]bool, n)
	roots := RandomOrder(n, seed)
	queue := make([]int64, 0, 1024)
	for _, r := range roots {
		if visited[r] {
			continue
		}
		visited[r] = true
		queue = append(queue[:0], r)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, u := range g.Neighbors(v) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return order
}

// DegreeDescOrder returns nodes by decreasing degree (hubs first) — an
// ablation stream order.
func DegreeDescOrder(g *graph.Graph) []int64 {
	n := g.N()
	order := make([]int64, n)
	for i := range order {
		order[i] = int64(i)
	}
	// Counting sort by degree, descending; stable on node id.
	maxDeg := g.MaxDegree()
	buckets := make([][]int64, maxDeg+1)
	for v := int64(0); v < n; v++ {
		d := g.Degree(v)
		buckets[d] = append(buckets[d], v)
	}
	out := order[:0]
	for d := maxDeg; d >= 0; d-- {
		out = append(out, buckets[d]...)
	}
	return order
}
