package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"datasynth/internal/depgraph"
	"datasynth/internal/match"
	"datasynth/internal/pgen"
	"datasynth/internal/schema"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// genStructure runs the edge type's structure generator. The resulting
// edge table carries *anonymous* node ids until the match task rewrites
// them into property-row (instance) ids. The returned note carries the
// generator's one-line telemetry (sgen.Noter — e.g. sharded RMAT's
// round/draw counts) into the task timing report, like match tasks do
// with their SBM-Part per-pass breakdown.
func (e *Engine) genStructure(st *runState, plan *depgraph.Plan, edgeName string) (string, error) {
	edge := e.Schema.EdgeType(edgeName)
	seed := e.structureSeed(edgeName)
	if c := edge.Correlation; c != nil && c.Fused {
		return "", e.genFusedStructure(st, plan, edge, seed)
	}
	monopartite := edge.Tail == edge.Head && e.SGens.HasMono(edge.Structure.Name)

	var et *table.EdgeTable
	var note string
	if monopartite {
		g, err := e.SGens.BuildMono(edge.Structure.Name, edge.Structure.Params, seed)
		if err != nil {
			return "", err
		}
		// Shard-capable generators (e.g. LFR's intra-community wiring,
		// RMAT's slab rounds) inherit the engine's worker budget; their
		// output is byte-identical at every worker count.
		if ws, ok := g.(sgen.WorkerSettable); ok {
			ws.SetWorkers(e.Workers)
		}
		var n int64
		if edge.Count > 0 {
			if n, err = g.NumNodesForEdges(edge.Count); err != nil {
				return "", err
			}
		} else if n, err = e.nodeCount(st, plan, edge.Tail); err != nil {
			return "", err
		}
		if et, err = g.Run(n); err != nil {
			return "", err
		}
		if err := et.Validate(n, n); err != nil {
			return "", fmt.Errorf("core: structure generator %s: %w", g.Name(), err)
		}
		if nt, ok := g.(sgen.Noter); ok {
			note = nt.RunNote()
		}
	} else {
		g, err := e.SGens.BuildBipartite(edge.Structure.Name, edge.Structure.Params, seed)
		if err != nil {
			return "", err
		}
		var nTail int64
		if edge.Count > 0 {
			if nTail, err = g.NumTailsForEdges(edge.Count); err != nil {
				return "", err
			}
		} else if nTail, err = e.nodeCount(st, plan, edge.Tail); err != nil {
			return "", err
		}
		// 1→* mints fresh heads; other cardinalities need the head
		// domain up front.
		nHead := int64(-1)
		if edge.Cardinality != schema.OneToMany && edge.Tail != edge.Head {
			if nHead, err = e.nodeCount(st, plan, edge.Head); err != nil {
				return "", err
			}
		}
		if edge.Cardinality == schema.OneToOne {
			nHead = nTail
		}
		if et, err = g.RunBipartite(nTail, nHead); err != nil {
			return "", err
		}
	}
	et.Name = edgeName
	st.setEdgeTable(edgeName, et)
	e.cacheEdgeSourcedCounts(st, plan, edgeName, et)
	if note != "" {
		e.logf("structure %s: %d edges (%s)", edgeName, et.Len(), note)
	} else {
		e.logf("structure %s: %d edges", edgeName, et.Len())
	}
	return note, nil
}

// cacheEdgeSourcedCounts resolves every node count sourced from this
// edge's table (SourceEdgeHead) as soon as the structure exists. The
// match task later rewrites the table's endpoint ids in place, so
// readers must never scan it themselves: resolving here both avoids a
// data race between a count-reading task and the remap, and pins the
// count to the pre-remap id domain — the only value that is correct.
// A non-positive MaxNode (empty table) is left uncached so nodeCount
// reports its usual error at the first reader.
func (e *Engine) cacheEdgeSourcedCounts(st *runState, plan *depgraph.Plan, edgeName string, et *table.EdgeTable) {
	typeNames := make([]string, 0, len(plan.Counts))
	for typeName := range plan.Counts {
		typeNames = append(typeNames, typeName)
	}
	sort.Strings(typeNames)
	for _, typeName := range typeNames {
		src := plan.Counts[typeName]
		if src.Kind != depgraph.SourceEdgeHead || src.Edge != edgeName {
			continue
		}
		if _, ok := st.count(typeName); ok {
			continue
		}
		if c := et.MaxNode(); c > 0 {
			st.setCount(typeName, c)
		}
	}
}

// genFusedStructure implements the paper's future-work fused operator
// for correlated 1→* edges: structure and the correlated head property
// are produced together by match.FusedOneToMany, realising the joint
// exactly up to integer rounding. Tail ids in the resulting table are
// final instance ids, so the match task becomes a no-op.
func (e *Engine) genFusedStructure(st *runState, plan *depgraph.Plan, edge *schema.EdgeType, seed uint64) error {
	c := edge.Correlation
	tailPT, ok := st.nodeProp(edge.Tail, c.TailProperty)
	if !ok {
		return fmt.Errorf("core: fused edge %s needs property %s.%s first", edge.Name, edge.Tail, c.TailProperty)
	}
	tailLabels, tailValues, err := labelsFor(tailPT)
	if err != nil {
		return err
	}
	kt := len(tailValues)
	// The head property's generator supplies the value universe and the
	// marginal P(Y); it must be categorical for the joint to be finite.
	headProp := e.Schema.NodeType(edge.Head).Property(c.HeadProperty)
	gen, err := e.PGens.Build(headProp.Generator.Name, headProp.Generator.Params)
	if err != nil {
		return err
	}
	cat, ok := gen.(*pgen.Categorical)
	if !ok {
		return fmt.Errorf("core: fused edge %s needs a categorical generator for %s.%s, got %s",
			edge.Name, edge.Head, c.HeadProperty, gen.Name())
	}
	headValues := cat.Values()
	kh := len(headValues)

	// Edge count: explicit, or measured from a dry run of the declared
	// structure generator (its out-degree model sizes the edge type).
	m := edge.Count
	if m == 0 {
		nTail, err := e.nodeCount(st, plan, edge.Tail)
		if err != nil {
			return err
		}
		g, err := e.SGens.BuildBipartite(edge.Structure.Name, edge.Structure.Params, seed)
		if err != nil {
			return err
		}
		dry, err := g.RunBipartite(nTail, -1)
		if err != nil {
			return err
		}
		m = dry.Len()
	}

	target, err := fusedTarget(c, tailLabels, kt, cat, kh)
	if err != nil {
		return err
	}
	et, headLabels, err := match.FusedOneToMany(tailLabels, kt, kh, m, target, seed)
	if err != nil {
		return err
	}
	et.Name = edge.Name
	st.setEdgeTable(edge.Name, et)
	e.cacheEdgeSourcedCounts(st, plan, edge.Name, et)
	st.setMatched(edge.Name) // tails are final ids; heads are fresh
	st.setFusedCol(edge.Head, c.HeadProperty, &fusedColumn{labels: headLabels, values: headValues})
	e.logf("fused structure %s: %d edges, joint exact up to rounding", edge.Name, et.Len())
	return nil
}

// fusedTarget builds the kt×kh joint for a fused edge from the tail
// label frequencies and the head generator's marginal probabilities.
func fusedTarget(c *schema.Correlation, tailLabels []int64, kt int, cat *pgen.Categorical, kh int) (*match.BipartiteTarget, error) {
	t := match.NewBipartiteTarget(kt, kh)
	if c.Matrix != nil {
		if len(c.Matrix) != kt {
			return nil, fmt.Errorf("core: fused matrix has %d rows, want %d", len(c.Matrix), kt)
		}
		for a := range c.Matrix {
			if len(c.Matrix[a]) != kh {
				return nil, fmt.Errorf("core: fused matrix row %d has %d entries, want %d", a, len(c.Matrix[a]), kh)
			}
			for b := range c.Matrix[a] {
				t.Set(a, b, c.Matrix[a][b])
			}
		}
		t.Normalize()
		return t, t.Validate()
	}
	tailFreq, err := stats.Frequencies(tailLabels, kt)
	if err != nil {
		return nil, err
	}
	minK := kt
	if kh < minK {
		minK = kh
	}
	var diagW, offW float64
	cellW := func(a, b int) float64 {
		return float64(tailFreq[a]) * cat.Prob(b)
	}
	for a := 0; a < kt; a++ {
		for b := 0; b < kh; b++ {
			if a%minK == b%minK {
				diagW += cellW(a, b)
			} else {
				offW += cellW(a, b)
			}
		}
	}
	for a := 0; a < kt; a++ {
		for b := 0; b < kh; b++ {
			w := cellW(a, b)
			if a%minK == b%minK {
				if diagW > 0 {
					t.Set(a, b, c.Homophily*w/diagW)
				}
			} else if offW > 0 {
				t.Set(a, b, (1-c.Homophily)*w/offW)
			}
		}
	}
	t.Normalize()
	return t, t.Validate()
}

// matchEdge performs the paper's graph-matching task: it rewrites the
// structure's anonymous node ids into instance ids, preserving the
// requested property-structure correlation (or randomly when none is
// declared). The returned note annotates the task's timing-report row
// with the SBM-Part per-pass breakdown, so -timings shows where a
// match task's critical-path time goes — including refinement passes.
func (e *Engine) matchEdge(st *runState, plan *depgraph.Plan, edgeName string) (string, error) {
	edge := e.Schema.EdgeType(edgeName)
	et, ok := st.edgeTable(edgeName)
	if !ok {
		return "", fmt.Errorf("core: match before structure for %q", edgeName)
	}
	if st.isMatched(edgeName) {
		// Fused edges arrive pre-matched.
		return "", nil
	}
	seed := xrand.NewStream(e.Schema.Seed).DeriveStream("match." + edgeName).Seed()
	nTail, err := e.nodeCount(st, plan, edge.Tail)
	if err != nil {
		return "", err
	}
	nHead, err := e.nodeCount(st, plan, edge.Head)
	if err != nil {
		return "", err
	}

	if edge.Correlation == nil {
		return "", e.matchRandom(st, edge, et, nTail, nHead, seed)
	}
	if edge.Correlation.Property != "" {
		return e.matchMonopartite(st, edge, et, nTail, seed)
	}
	return "", e.matchBipartiteEdge(st, edge, et, nTail, nHead, seed)
}

// matchRandom applies the paper's uncorrelated rule: "In those cases
// where an edge type is not correlated with any property, the matching
// is done randomly."
func (e *Engine) matchRandom(st *runState, edge *schema.EdgeType, et *table.EdgeTable, nTail, nHead int64, seed uint64) error {
	// Domain extents actually used by the structure (tails and heads
	// have independent id spaces on bipartite edges).
	var maxTail, maxHead int64 = -1, -1
	for i := range et.Tail {
		if et.Tail[i] > maxTail {
			maxTail = et.Tail[i]
		}
		if et.Head[i] > maxHead {
			maxHead = et.Head[i]
		}
	}
	tailSpan, headSpan := maxTail+1, maxHead+1

	switch edge.Cardinality {
	case schema.OneToMany:
		if edge.Tail == edge.Head {
			// Self 1→* edge (e.g. Message replyOf Message, a cascade):
			// tails and heads share one id domain, so both endpoints must
			// map through the same bijection to preserve the structure.
			span := tailSpan
			if headSpan > span {
				span = headSpan
			}
			f, err := match.RandomMatch(span, nTail, seed)
			if err != nil {
				return err
			}
			et.Remap(f)
			break
		}
		// Heads are freshly minted dense ids — they *are* the instance
		// ids. Tails map through a random bijection so instance id
		// carries no out-degree bias.
		fTail, err := match.RandomMatch(tailSpan, nTail, seed)
		if err != nil {
			return err
		}
		et.RemapTails(fTail)
	case schema.OneToOne:
		fTail, err := match.RandomMatch(tailSpan, nTail, seed)
		if err != nil {
			return err
		}
		fHead, err := match.RandomMatch(headSpan, nHead, seed^0x9e3779b97f4a7c15)
		if err != nil {
			return err
		}
		et.RemapTails(fTail)
		et.RemapHeads(fHead)
	default: // ManyToMany
		if edge.Tail == edge.Head {
			span := tailSpan
			if headSpan > span {
				span = headSpan
			}
			f, err := match.RandomMatch(span, nTail, seed)
			if err != nil {
				return err
			}
			et.Remap(f)
		} else {
			fTail, err := match.RandomMatch(tailSpan, nTail, seed)
			if err != nil {
				return err
			}
			fHead, err := match.RandomMatch(headSpan, nHead, seed^0x9e3779b97f4a7c15)
			if err != nil {
				return err
			}
			et.RemapTails(fTail)
			et.RemapHeads(fHead)
		}
	}
	st.setMatched(edge.Name)
	return nil
}

// labelsFor reduces a string property table to dense value indices,
// returning (labels, values) where values[i] is the string of index i.
// Value order follows first appearance, making the reduction
// deterministic.
func labelsFor(pt *table.PropertyTable) ([]int64, []string, error) {
	if pt.Kind != table.KindString {
		return nil, nil, fmt.Errorf("core: correlated property %s must be a string property", pt.Name)
	}
	index := map[string]int64{}
	var values []string
	labels := make([]int64, pt.Len())
	for id := int64(0); id < pt.Len(); id++ {
		v := pt.String(id)
		k, ok := index[v]
		if !ok {
			k = int64(len(values))
			index[v] = k
			values = append(values, v)
		}
		labels[id] = k
	}
	return labels, values, nil
}

// targetJoint builds the P(X,Y) for a monopartite correlation: the
// user's explicit matrix, or the homophily model over the observed
// value frequencies.
func targetJoint(c *schema.Correlation, labels []int64, k int) (*stats.Joint, error) {
	if c.Matrix != nil {
		if len(c.Matrix) != k {
			return nil, fmt.Errorf("core: correlation matrix is %d×·, property has %d values", len(c.Matrix), k)
		}
		j := stats.NewJoint(k)
		for a := range c.Matrix {
			if len(c.Matrix[a]) != k {
				return nil, fmt.Errorf("core: correlation matrix row %d has %d entries, want %d", a, len(c.Matrix[a]), k)
			}
			for b := a; b < k; b++ {
				j.Set(a, b, c.Matrix[a][b])
			}
		}
		j.Normalize()
		if err := j.Validate(); err != nil {
			return nil, err
		}
		return j, nil
	}
	sizes, err := stats.Frequencies(labels, k)
	if err != nil {
		return nil, err
	}
	return stats.HomophilyJoint(sizes, c.Homophily)
}

// matchMonopartite runs SBM-Part for a same-type correlated edge. The
// returned note carries the partitioner's per-pass wall times into the
// task timing report.
func (e *Engine) matchMonopartite(st *runState, edge *schema.EdgeType, et *table.EdgeTable, nTail int64, seed uint64) (string, error) {
	pt, ok := st.nodeProp(edge.Tail, edge.Correlation.Property)
	if !ok {
		return "", fmt.Errorf("core: correlated property %s.%s not materialised", edge.Tail, edge.Correlation.Property)
	}
	labels, values, err := labelsFor(pt)
	if err != nil {
		return "", err
	}
	k := len(values)
	target, err := targetJoint(edge.Correlation, labels, k)
	if err != nil {
		return "", err
	}
	structN := et.MaxNode()
	if structN > nTail {
		return "", fmt.Errorf("core: structure of %s spans %d nodes but %s has %d instances", edge.Name, structN, edge.Tail, nTail)
	}
	// The structure may cover fewer nodes than instances exist; SBM-Part
	// capacities come from all rows, so the mapping stays injective.
	opt := match.DefaultOptions(seed)
	opt.Passes = edge.Correlation.Passes
	opt.Workers = e.Workers
	res, err := match.MatchProperty(et, nTail, labels, target, opt)
	if err != nil {
		return "", err
	}
	et.Remap(res.Mapping)
	l1, _ := stats.L1(target, res.Observed)
	note := sbmNote(res)
	e.logf("match %s: k=%d L1=%.4f %s", edge.Name, k, l1, note)
	st.setMatched(edge.Name)
	return note, nil
}

// sbmNote renders a match result's SBM-Part timing for logs and the
// timing report: the total, plus the per-pass breakdown when
// refinement passes ran (pass 0 is the initial stream).
func sbmNote(res *match.Result) string {
	if len(res.PassTimes) <= 1 {
		return fmt.Sprintf("sbm %v", res.PartitionTime.Round(time.Microsecond))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sbm %v (passes", res.PartitionTime.Round(time.Microsecond))
	for i, d := range res.PassTimes {
		if i == 0 {
			fmt.Fprintf(&b, " %v", d.Round(time.Microsecond))
		} else {
			fmt.Fprintf(&b, "+%v", d.Round(time.Microsecond))
		}
	}
	b.WriteString(")")
	return b.String()
}

// matchBipartiteEdge runs the bipartite SBM-Part variation for an edge
// correlating a tail property with a head property.
func (e *Engine) matchBipartiteEdge(st *runState, edge *schema.EdgeType, et *table.EdgeTable, nTail, nHead int64, seed uint64) error {
	c := edge.Correlation
	tailPT, ok := st.nodeProp(edge.Tail, c.TailProperty)
	if !ok {
		return fmt.Errorf("core: property %s.%s not materialised", edge.Tail, c.TailProperty)
	}
	headPT, ok := st.nodeProp(edge.Head, c.HeadProperty)
	if !ok {
		return fmt.Errorf("core: property %s.%s not materialised", edge.Head, c.HeadProperty)
	}
	tailLabels, tailValues, err := labelsFor(tailPT)
	if err != nil {
		return err
	}
	headLabels, headValues, err := labelsFor(headPT)
	if err != nil {
		return err
	}
	kt, kh := len(tailValues), len(headValues)
	target, err := bipartiteTarget(c, tailLabels, headLabels, kt, kh)
	if err != nil {
		return err
	}
	res, err := match.MatchBipartite(et, nTail, nHead, tailLabels, headLabels, target, match.DefaultOptions(seed))
	if err != nil {
		return err
	}
	et.RemapTails(res.TailMapping)
	et.RemapHeads(res.HeadMapping)
	st.setMatched(edge.Name)
	return nil
}

// bipartiteTarget derives the kt×kh target: explicit matrix or the
// homophily model generalised to two label sets (mass on index-aligned
// pairs).
func bipartiteTarget(c *schema.Correlation, tailLabels, headLabels []int64, kt, kh int) (*match.BipartiteTarget, error) {
	t := match.NewBipartiteTarget(kt, kh)
	if c.Matrix != nil {
		if len(c.Matrix) != kt {
			return nil, fmt.Errorf("core: bipartite matrix is %d×·, want %d rows", len(c.Matrix), kt)
		}
		for a := range c.Matrix {
			if len(c.Matrix[a]) != kh {
				return nil, fmt.Errorf("core: bipartite matrix row %d has %d entries, want %d", a, len(c.Matrix[a]), kh)
			}
			for b := range c.Matrix[a] {
				t.Set(a, b, c.Matrix[a][b])
			}
		}
		t.Normalize()
		return t, t.Validate()
	}
	tailFreq, err := stats.Frequencies(tailLabels, kt)
	if err != nil {
		return nil, err
	}
	headFreq, err := stats.Frequencies(headLabels, kh)
	if err != nil {
		return nil, err
	}
	// Homophily h concentrates mass on pairs with equal index modulo
	// min(kt,kh); the rest spreads proportionally to frequency products.
	minK := kt
	if kh < minK {
		minK = kh
	}
	var diagW, offW float64
	for a := 0; a < kt; a++ {
		for b := 0; b < kh; b++ {
			w := float64(tailFreq[a]) * float64(headFreq[b])
			if a%minK == b%minK {
				diagW += w
			} else {
				offW += w
			}
		}
	}
	for a := 0; a < kt; a++ {
		for b := 0; b < kh; b++ {
			w := float64(tailFreq[a]) * float64(headFreq[b])
			if a%minK == b%minK {
				if diagW > 0 {
					t.Set(a, b, c.Homophily*w/diagW)
				}
			} else if offW > 0 {
				t.Set(a, b, (1-c.Homophily)*w/offW)
			}
		}
	}
	t.Normalize()
	return t, t.Validate()
}

// genEdgeProperty materialises one edge property table; dependencies
// may reference sibling edge properties or endpoint node properties via
// tail./head. prefixes (resolved through the matched edge table).
func (e *Engine) genEdgeProperty(st *runState, edgeName, propName string) error {
	edge := e.Schema.EdgeType(edgeName)
	prop := edge.Property(propName)
	et, ok := st.edgeTable(edgeName)
	if !ok || !st.isMatched(edgeName) {
		return fmt.Errorf("core: edge property %s.%s before match", edgeName, propName)
	}
	gen, err := e.PGens.Build(prop.Generator.Name, prop.Generator.Params)
	if err != nil {
		return err
	}
	if err := checkKind(gen, prop); err != nil {
		return err
	}
	type depSource struct {
		endpoint int // 0 = edge prop, 1 = tail, 2 = head
		pt       *table.PropertyTable
	}
	deps := make([]depSource, len(prop.DependsOn))
	for i, d := range prop.DependsOn {
		switch {
		case len(d) > 5 && d[:5] == "tail.":
			pt, ok := st.nodeProp(edge.Tail, d[5:])
			if !ok {
				return fmt.Errorf("core: dependency %s not materialised", d)
			}
			deps[i] = depSource{endpoint: 1, pt: pt}
		case len(d) > 5 && d[:5] == "head.":
			pt, ok := st.nodeProp(edge.Head, d[5:])
			if !ok {
				return fmt.Errorf("core: dependency %s not materialised", d)
			}
			deps[i] = depSource{endpoint: 2, pt: pt}
		default:
			pt, ok := st.edgeProp(edgeName, d)
			if !ok {
				return fmt.Errorf("core: dependency %s.%s not materialised", edgeName, d)
			}
			deps[i] = depSource{endpoint: 0, pt: pt}
		}
	}
	m := et.Len()
	pt := table.NewPropertyTable(edgeName+"."+propName, prop.Kind, m)
	stream := e.propertySeed(edgeName, propName)
	if err := e.parallelFill(pt, m, gen, stream, func(id int64, buf []pgen.Value) []pgen.Value {
		for i, d := range deps {
			switch d.endpoint {
			case 1:
				buf[i] = valueAt(d.pt, et.Tail[id])
			case 2:
				buf[i] = valueAt(d.pt, et.Head[id])
			default:
				buf[i] = valueAt(d.pt, id)
			}
		}
		return buf[:len(deps)]
	}, len(deps)); err != nil {
		return err
	}
	st.setEdgeProp(edgeName, propName, pt)
	return nil
}

// assemble packages the run state as a dataset, preserving schema
// property order.
func (e *Engine) assemble(st *runState) *table.Dataset {
	d := table.NewDataset()
	for i := range e.Schema.Nodes {
		n := &e.Schema.Nodes[i]
		d.NodeCounts[n.Name] = st.counts[n.Name]
		for j := range n.Properties {
			d.NodeProps[n.Name] = append(d.NodeProps[n.Name], st.nodeProps[n.Name][n.Properties[j].Name])
		}
	}
	for i := range e.Schema.Edges {
		ed := &e.Schema.Edges[i]
		d.Edges[ed.Name] = st.edges[ed.Name]
		for j := range ed.Properties {
			d.EdgeProps[ed.Name] = append(d.EdgeProps[ed.Name], st.edgeProps[ed.Name][ed.Properties[j].Name])
		}
	}
	return d
}
