package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"datasynth/internal/depgraph"
	"datasynth/internal/schema"
	"datasynth/internal/table"
)

// hashDir returns the SHA-256 of every regular file in dir, keyed by
// file name.
func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]string{}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			f.Close()
			t.Fatal(err)
		}
		f.Close()
		hashes[ent.Name()] = hex.EncodeToString(h.Sum(nil))
	}
	if len(hashes) == 0 {
		t.Fatalf("no files exported into %s", dir)
	}
	return hashes
}

// exportHashes generates the schema at the given worker count,
// exports it in every format at the given export worker count, and
// returns the per-file SHA-256 set.
func exportHashes(t *testing.T, s *schema.Schema, workers, exportWorkers int) map[string]string {
	t.Helper()
	e := New(s)
	e.Workers = workers
	d, err := e.Generate()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	dir := t.TempDir()
	hashes := map[string]string{}
	for _, format := range []table.Format{table.FormatCSV, table.FormatJSONL, table.FormatColumnar} {
		sub := filepath.Join(dir, format.String())
		if _, err := d.Export(sub, table.ExportOptions{Format: format, Workers: exportWorkers}); err != nil {
			t.Fatalf("workers=%d %v: %v", workers, format, err)
		}
		for name, h := range hashDir(t, sub) {
			hashes[format.String()+"/"+name] = h
		}
	}
	return hashes
}

// exportConfigs is the {scheduler workers, export workers} matrix both
// golden-determinism tests sweep against their serial baseline.
var exportConfigs = []struct{ workers, exportWorkers int }{
	{1, 4},
	{runtime.NumCPU(), runtime.NumCPU()},
	{runtime.NumCPU(), 0}, // auto export workers
	{runtime.NumCPU(), 8},
	{4, 2},
}

// checkExportConfigs regenerates s at every exportConfigs entry and
// compares each exported file's hash against ref.
func checkExportConfigs(t *testing.T, s func() *schema.Schema, ref map[string]string) {
	t.Helper()
	for _, cfg := range exportConfigs {
		got := exportHashes(t, s(), cfg.workers, cfg.exportWorkers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d files, want %d", cfg.workers, len(got), len(ref))
		}
		for name, h := range ref {
			if got[name] != h {
				t.Errorf("workers=%d exportWorkers=%d: %s hash %s, want %s",
					cfg.workers, cfg.exportWorkers, name, got[name], h)
			}
		}
	}
}

// TestExportedDatasetGoldenDeterminism is the end-to-end determinism
// contract: a Figure-3-style schema (LFR structure + SBM-Part match +
// parallel property fill) must export byte-identical node, edge and
// property files — hash-verified on disk, not just in memory — at
// every scheduler worker count, every export worker count and in
// every export format ("per-seed, worker-invariant, format-stable").
func TestExportedDatasetGoldenDeterminism(t *testing.T) {
	ref := exportHashes(t, quickstartSchema(), 1, 1) // sequential plan, serial export
	if len(ref) != 6 {
		t.Fatalf("expected 6 exported files (csv+jsonl+columnar × nodes+edges), got %d", len(ref))
	}
	checkExportConfigs(t, quickstartSchema, ref)
}

// refinedQuickstartSchema is the quickstart schema with re-streaming
// refinement passes on its correlated edge, so match tasks exercise
// PartitionMultiPass end to end.
func refinedQuickstartSchema() *schema.Schema {
	s := quickstartSchema()
	s.Edges[0].Correlation.Passes = 2
	return s
}

// TestExportedRefinedDatasetGoldenDeterminism extends the contract to
// the multi-pass matcher, whose refinement passes rebuild the joint
// matrix sharded across workers.
func TestExportedRefinedDatasetGoldenDeterminism(t *testing.T) {
	ref := exportHashes(t, refinedQuickstartSchema(), 1, 1) // fully serial baseline
	if len(ref) != 6 {
		t.Fatalf("expected 6 exported files, got %d", len(ref))
	}
	// The refined dataset must actually differ from the single-pass one
	// (otherwise this test would silently duplicate the one above).
	plain := exportHashes(t, quickstartSchema(), 1, 1)
	if plain["csv/edges_follows.csv"] == ref["csv/edges_follows.csv"] {
		t.Fatal("refinement passes did not change the matched edge table")
	}
	checkExportConfigs(t, refinedQuickstartSchema, ref)
}

// TestColumnarExportRoundTripsThroughEngine: the binary format must
// reproduce an engine-generated dataset exactly — counts, structure
// and every property value — when loaded back with OpenColumnar.
func TestColumnarExportRoundTripsThroughEngine(t *testing.T) {
	e := New(quickstartSchema())
	d, err := e.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.WriteDirColumnar(dir); err != nil {
		t.Fatal(err)
	}
	got, err := table.OpenColumnar(dir)
	if err != nil {
		t.Fatal(err)
	}
	for typ, n := range d.NodeCounts {
		if got.NodeCounts[typ] != n {
			t.Errorf("count[%s] = %d, want %d", typ, got.NodeCounts[typ], n)
		}
		for i, want := range d.NodeProps[typ] {
			pt := got.NodeProps[typ][i]
			if pt.Name != want.Name || pt.Kind != want.Kind || pt.Len() != want.Len() {
				t.Fatalf("prop %s malformed after round trip", want.Name)
			}
			for id := int64(0); id < want.Len(); id++ {
				if pt.Value(id) != want.Value(id) {
					t.Fatalf("%s row %d: %v, want %v", want.Name, id, pt.Value(id), want.Value(id))
				}
			}
		}
	}
	for typ, want := range d.Edges {
		et := got.Edges[typ]
		if et == nil || et.Len() != want.Len() {
			t.Fatalf("edge table %s missing or wrong length", typ)
		}
		for i := range want.Tail {
			if et.Tail[i] != want.Tail[i] || et.Head[i] != want.Head[i] {
				t.Fatalf("edge %s row %d differs", typ, i)
			}
		}
	}
}

// TestEngineExportReport: Engine.Export must fold the export into the
// run report — end-to-end wall, per-file stats, and an export hop
// terminating the critical path.
func TestEngineExportReport(t *testing.T) {
	e := New(quickstartSchema())
	e.ExportFormat = table.FormatColumnar
	d, err := e.Generate()
	if err != nil {
		t.Fatal(err)
	}
	planPath := len(e.Report().CriticalPath)
	if err := e.Export(d, filepath.Join(t.TempDir(), "out")); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep.ExportTotal <= 0 {
		t.Fatal("export wall time not recorded")
	}
	if len(rep.ExportFiles) == 0 {
		t.Fatal("no per-file export stats")
	}
	for _, f := range rep.ExportFiles {
		if f.Bytes <= 0 || f.Duration < 0 {
			t.Errorf("file stat %+v malformed", f)
		}
		if filepath.Ext(f.Name) != table.ColumnarExt {
			t.Errorf("file %s does not use the configured format", f.Name)
		}
	}
	if rep.EndToEnd != rep.Total+rep.ExportTotal {
		t.Errorf("EndToEnd = %v, want %v", rep.EndToEnd, rep.Total+rep.ExportTotal)
	}
	if len(rep.CriticalPath) != planPath+1 {
		t.Fatalf("critical path has %d steps, want %d", len(rep.CriticalPath), planPath+1)
	}
	last := rep.CriticalPath[len(rep.CriticalPath)-1]
	if len(last) < 8 || last[:7] != "export:" {
		t.Errorf("critical path does not end in an export hop: %q", last)
	}
	if s := rep.String(); !strings.Contains(s, "end-to-end") || !strings.Contains(s, "export:") {
		t.Errorf("report rendering missing export section:\n%s", s)
	}
}

// TestRunReportCriticalPath: every Generate must record one timing per
// task and a critical path that respects the dependency structure
// (property → structure → match chains for the quickstart schema).
func TestRunReportCriticalPath(t *testing.T) {
	e := New(quickstartSchema())
	e.Workers = 2
	if e.Report() != nil {
		t.Fatal("report non-nil before first Generate")
	}
	if _, err := e.Generate(); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep == nil {
		t.Fatal("no report after Generate")
	}
	plan, err := depgraph.Analyze(e.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timings) != len(plan.Tasks) {
		t.Fatalf("%d timings for %d tasks", len(rep.Timings), len(plan.Tasks))
	}
	if len(rep.CriticalPath) == 0 || rep.CriticalPathTime <= 0 {
		t.Fatalf("empty critical path: %+v", rep.CriticalPath)
	}
	if rep.CriticalPathTime > rep.Total {
		// The path is a lower bound on wall time; it can never exceed
		// the measured total.
		t.Fatalf("critical path %v exceeds total %v", rep.CriticalPathTime, rep.Total)
	}
	// The critical path must be a real dependency chain: consecutive
	// entries linked by plan edges.
	idx := map[string]int{}
	for i, task := range plan.Tasks {
		idx[task.ID()] = i
	}
	for i := 1; i < len(rep.CriticalPath); i++ {
		cur, ok := idx[rep.CriticalPath[i]]
		if !ok {
			t.Fatalf("unknown task %q on critical path", rep.CriticalPath[i])
		}
		prev := idx[rep.CriticalPath[i-1]]
		linked := false
		for _, d := range plan.Deps[cur] {
			if d == prev {
				linked = true
				break
			}
		}
		if !linked {
			t.Fatalf("critical path step %q -> %q is not a plan dependency",
				rep.CriticalPath[i-1], rep.CriticalPath[i])
		}
	}
	// Critical flags in Timings must match the path.
	critical := 0
	for _, tt := range rep.Timings {
		if tt.Critical {
			critical++
		}
	}
	if critical != len(rep.CriticalPath) {
		t.Fatalf("%d critical-flagged tasks, path has %d", critical, len(rep.CriticalPath))
	}
	if s := rep.String(); len(s) == 0 {
		t.Fatal("empty report rendering")
	}
}
