// Package exp implements the paper's evaluation protocol (Section 4.2,
// "Preliminary evaluation of graph matching") end to end, so Figures 3
// and 4, the Table 1 capability matrix and the timing claim can be
// regenerated:
//
//  1. Generate a graph g with LFR or RMAT.
//  2. Partition g into k ground-truth groups with LDG; group i is sized
//     n·max(geo(0.4,i),1/k)/Σ_j max(geo(0.4,j),1/k).
//  3. Label partition i's nodes with value i and compute the empirical
//     joint P(X,Y).
//  4. Build a property table with the same value frequencies and stream
//     the nodes of g through SBM-Part in random order.
//  5. Compare the expected and observed CDFs over value pairs sorted by
//     decreasing expected probability.
//
// Panels are independent — each derives every RNG stream from its own
// seed — so the harness fans them out: RunPanels executes a panel list
// on a bounded worker pool and streams results back in submission
// order, byte-identical to the serial loop at every worker count
// (TestRunPanelsMatchesSerial pins this). RunMuSweep pools its sweep
// points the same way. The one deliberate exception is RunTiming,
// which pins Workers=1 and runs panels one at a time so its wall-clock
// numbers remain the paper's single-thread measurement. A panel result
// carries the full assignment and edge table (Result.Assign/.Table),
// so Result.Dataset can materialise it as an exportable property graph.
package exp

import (
	"fmt"
	"time"

	"datasynth/internal/graph"
	"datasynth/internal/match"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// GeneratorKind selects the structure generator of a panel.
type GeneratorKind string

// The two generators of the paper's evaluation.
const (
	LFR  GeneratorKind = "LFR"
	RMAT GeneratorKind = "RMAT"
)

// Panel describes one subplot of Figure 3 or 4.
type Panel struct {
	Generator GeneratorKind
	// Size is the node count for LFR panels and the scale (log2 nodes)
	// for RMAT panels, matching the paper's labels LFR(10k,16) and
	// RMAT(22,16).
	Size int64
	// K is the number of distinct property values.
	K int
	// Seed drives all pseudo-randomness of the panel.
	Seed uint64
	// Order optionally overrides the SBM-Part stream order ablation
	// ("random" default, "bfs", "degree").
	Order string
	// Balance toggles SBM-Part's capacity-balancing term (default on).
	NoBalance bool
	// Passes adds re-streaming refinement passes after the first
	// streaming pass (0 = the paper's single-pass algorithm).
	Passes int
	// Workers bounds the panel's intra-task parallelism — LFR's
	// sharded community wiring and the joint-matrix rebuild of
	// SBM-Part's refinement passes (0 = NumCPU, 1 = serial).
	// Byte-identical output at every count.
	Workers int
}

// Label renders the paper's panel naming, e.g. "LFR(10k,16)".
func (p Panel) Label() string {
	if p.Generator == RMAT {
		return fmt.Sprintf("RMAT(%d,%d)", p.Size, p.K)
	}
	return fmt.Sprintf("LFR(%s,%d)", compact(p.Size), p.K)
}

func compact(n int64) string {
	switch {
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%dk", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// Result holds one panel's measurements.
type Result struct {
	Panel    Panel
	Nodes    int64
	Edges    int64
	CDF      *stats.CDFPair
	L1       float64
	KS       float64
	JS       float64
	GenTime  time.Duration // graph generation
	LDGTime  time.Duration // ground-truth partitioning
	SBMTime  time.Duration // SBM-Part matching (the paper's timing claim)
	Expected *stats.Joint
	Observed *stats.Joint
	// Assign is SBM-Part's value assignment per structure node and
	// Table the generated edge table — plumbed out so a panel can be
	// materialised as an exportable dataset (see Result.Dataset) instead
	// of existing only as summary statistics.
	Assign []int64
	Table  *table.EdgeTable
}

// RunPanel executes the full protocol for one panel.
func RunPanel(p Panel) (*Result, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("exp: panel needs K >= 1, got %d", p.K)
	}
	// 1. Structure.
	t0 := time.Now()
	var et *table.EdgeTable
	var n int64
	var err error
	switch p.Generator {
	case LFR:
		g := sgen.NewLFR(p.Seed)
		g.Workers = p.Workers
		n = p.Size
		et, err = g.Run(n)
	case RMAT:
		g := sgen.NewRMAT(p.Seed)
		g.Workers = p.Workers
		n = int64(1) << uint(p.Size)
		et, err = g.Run(n)
	default:
		return nil, fmt.Errorf("exp: unknown generator %q", p.Generator)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: generating %s: %w", p.Label(), err)
	}
	genTime := time.Since(t0)
	// The CSR build is amortised across panels: benchmarks call RunPanel
	// in a loop, and the builder pool reuses deg/offs/adj between runs.
	gb := graph.GetBuilder()
	defer graph.PutBuilder(gb)
	g, err := gb.FromEdgeTable(et, n)
	if err != nil {
		return nil, err
	}

	// 2. Ground truth via LDG with geometric group sizes.
	sizes, err := xrand.GroupSizes(n, p.K, 0.4)
	if err != nil {
		return nil, err
	}
	ldg, err := match.NewLDG(sizes)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	truth, err := ldg.Partition(g, match.RandomOrder(n, p.Seed^0x1))
	if err != nil {
		return nil, fmt.Errorf("exp: LDG ground truth: %w", err)
	}
	ldgTime := time.Since(t1)

	// 3. Expected joint.
	expected, err := stats.EmpiricalJoint(et, truth, p.K)
	if err != nil {
		return nil, err
	}

	// 4. Property table with the ground-truth frequencies, nodes sent to
	// SBM-Part in random order (or an ablation order).
	rowLabels := make([]int64, n)
	idx := int64(0)
	for v, sz := range sizes {
		for c := int64(0); c < sz; c++ {
			rowLabels[idx] = int64(v)
			idx++
		}
	}
	part, err := match.NewSBMPart(expected, sizes)
	if err != nil {
		return nil, err
	}
	part.Balance = !p.NoBalance
	part.Seed = p.Seed ^ 0x3
	part.Workers = p.Workers
	var order []int64
	switch p.Order {
	case "", "random":
		order = match.RandomOrder(n, p.Seed^0x2)
	case "bfs":
		order = match.BFSOrder(g, p.Seed^0x2)
	case "degree":
		order = match.DegreeDescOrder(g)
	default:
		return nil, fmt.Errorf("exp: unknown stream order %q", p.Order)
	}
	t2 := time.Now()
	var assign []int64
	if p.Passes > 0 {
		assign, err = part.PartitionMultiPass(g, order, p.Passes)
	} else {
		assign, err = part.Partition(g, order)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: SBM-Part: %w", err)
	}
	sbmTime := time.Since(t2)

	// 5. Observed joint and CDF comparison.
	observed, err := stats.EmpiricalJoint(et, assign, p.K)
	if err != nil {
		return nil, err
	}
	cdf, err := stats.NewCDFPair(expected, observed)
	if err != nil {
		return nil, err
	}
	l1, err := stats.L1(expected, observed)
	if err != nil {
		return nil, err
	}
	js, err := stats.JensenShannon(expected, observed)
	if err != nil {
		return nil, err
	}
	return &Result{
		Panel: p, Nodes: n, Edges: et.Len(),
		CDF: cdf, L1: l1, KS: cdf.KS(), JS: js,
		GenTime: genTime, LDGTime: ldgTime, SBMTime: sbmTime,
		Expected: expected, Observed: observed,
		Assign: assign, Table: et,
	}, nil
}

// Figure3Panels returns the paper's Figure 3 configuration: fixed
// k = 16, varying size. When full is false, sizes are scaled down to
// laptop scale (shape is size-insensitive, which is exactly the
// figure's finding).
func Figure3Panels(full bool) []Panel {
	if full {
		return []Panel{
			{Generator: LFR, Size: 10000, K: 16, Seed: 31},
			{Generator: LFR, Size: 100000, K: 16, Seed: 32},
			{Generator: LFR, Size: 1000000, K: 16, Seed: 33},
			{Generator: RMAT, Size: 18, K: 16, Seed: 34},
			{Generator: RMAT, Size: 20, K: 16, Seed: 35},
			{Generator: RMAT, Size: 22, K: 16, Seed: 36},
		}
	}
	return []Panel{
		{Generator: LFR, Size: 10000, K: 16, Seed: 31},
		{Generator: LFR, Size: 30000, K: 16, Seed: 32},
		{Generator: LFR, Size: 100000, K: 16, Seed: 33},
		{Generator: RMAT, Size: 12, K: 16, Seed: 34},
		{Generator: RMAT, Size: 14, K: 16, Seed: 35},
		{Generator: RMAT, Size: 16, K: 16, Seed: 36},
	}
}

// Figure4Panels returns the paper's Figure 4 configuration: fixed size,
// k ∈ {4, 16, 64}.
func Figure4Panels(full bool) []Panel {
	lfrSize := int64(100000)
	rmatScale := int64(16)
	if full {
		lfrSize = 1000000
		rmatScale = 22
	}
	return []Panel{
		{Generator: LFR, Size: lfrSize, K: 4, Seed: 41},
		{Generator: LFR, Size: lfrSize, K: 16, Seed: 42},
		{Generator: LFR, Size: lfrSize, K: 64, Seed: 43},
		{Generator: RMAT, Size: rmatScale, K: 4, Seed: 44},
		{Generator: RMAT, Size: rmatScale, K: 16, Seed: 45},
		{Generator: RMAT, Size: rmatScale, K: 64, Seed: 46},
	}
}
