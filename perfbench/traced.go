package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/depgraph"
	"datasynth/internal/dsl"
	"datasynth/internal/table"
)

// pipeOp is one in-process generate→export op of the traced run.
type pipeOp struct {
	wall        time.Duration
	generate    time.Duration
	critical    time.Duration
	taskSum     time.Duration
	byKind      map[depgraph.TaskKind]time.Duration
	export      time.Duration
	exportBytes int64
	allocBytes  uint64
	data        *table.Dataset
}

// taskLayer names the layer a task of the given kind belongs to.
var taskLayer = map[depgraph.TaskKind]string{
	depgraph.TaskProperty:     "pgen",
	depgraph.TaskEdgeProperty: "pgen",
	depgraph.TaskStructure:    "sgen",
	depgraph.TaskMatch:        "match",
}

// pipelineOp resolves the workload's schema the way the daemon resolves
// a submit by name, generates and exports it, with a span around each
// layer call. The engine's run report supplies one child span per task
// of Engine.GenerateCtx. A nil tracer runs the identical calls untraced.
func pipelineOp(ctx context.Context, tr *tracer, op int64, base string, w *workload, n int64, seed uint64, out string) (pipeOp, error) {
	var p pipeOp
	start := time.Now()
	root := tr.begin(op, -1, "bench.op")
	defer tr.end(root)
	sp := tr.begin(op, root, "dsl.Parse")
	s, err := dsl.Parse(base)
	tr.end(sp)
	if err != nil {
		return p, err
	}
	sp = tr.begin(op, root, "dsl.Override")
	err = dsl.Override(s, overrides(w.sized, n, seed))
	tr.end(sp)
	if err != nil {
		return p, err
	}
	sp = tr.begin(op, root, "depgraph.Analyze")
	_, err = depgraph.Analyze(s)
	tr.end(sp)
	if err != nil {
		return p, err
	}
	sp = tr.begin(op, root, "core.CanonicalHash")
	core.CanonicalHash(s)
	tr.end(sp)

	format, err := table.ParseFormat(w.format)
	if err != nil {
		return p, err
	}
	eng := core.New(s)
	eng.ExportFormat = format
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	genStart := time.Now()
	sp = tr.begin(op, root, "core.GenerateCtx")
	p.data, err = eng.GenerateCtx(ctx)
	tr.end(sp)
	p.generate = time.Since(genStart)
	if err != nil {
		return p, err
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	}
	rep := eng.Report()
	p.critical = rep.CriticalPathTime
	p.byKind = map[depgraph.TaskKind]time.Duration{}
	for _, t := range rep.Timings {
		p.byKind[t.Kind] += t.Duration
		p.taskSum += t.Duration
		at := genStart.Add(t.Start)
		tr.add(op, sp, taskLayer[t.Kind]+"."+t.ID, at, at.Add(t.Duration))
	}

	if err := os.RemoveAll(out); err != nil {
		return p, err
	}
	exportStart := time.Now()
	sp = tr.begin(op, root, "table.ExportCtx")
	err = eng.ExportCtx(ctx, p.data, out)
	tr.end(sp)
	p.export = time.Since(exportStart)
	for _, f := range eng.Report().ExportFiles {
		p.exportBytes += f.Bytes
	}
	p.wall = time.Since(start)
	return p, err
}

// runTraced is the traced run: the in-process pipeline (half of the
// measured time), the daemon serving the same schema (the other half),
// then the worker-scaling lanes. Traced and untraced ops alternate, so
// the run also reports what tracing costs.
func runTraced(ctx context.Context, cfg config, w *workload, env map[string]string) (*result, error) {
	example, err := exampleSchema(cfg.datasynth())
	if err != nil {
		return nil, err
	}
	dir, err := workDir(cfg, w.name+"-traced")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sd := deriveSeeds(cfg.seed, hotSeeds)
	n := cfg.count(w)
	base := w.schema(example)
	hot := []uint64{sd.schema}
	// The CLI's export of the schema seed is the reference every
	// in-process op must reproduce byte for byte.
	hs, err := exportHotSet(ctx, cfg, w, base, dir, n, hot)
	if err == nil {
		_, err = hs.check(w)
	}
	if err != nil {
		return nil, fmt.Errorf("reference export: %w", err)
	}
	tr := newTracer()
	res := &result{}
	half := cfg.seconds / 2

	// In-process pipeline, odd ops traced.
	out := filepath.Join(dir, "out")
	var traced, untraced []pipeOp
	var last *table.Dataset
	for op, deadline := int64(1), time.Now().Add(half); op <= 2 || time.Now().Before(deadline); op++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		t := tr
		if op%2 == 0 {
			t = nil
		}
		res.Attempted++
		p, err := pipelineOp(ctx, t, op, base, w, n, hot[0], out)
		if err == nil {
			err = checkTable(out, w.table, hs.want[hot[0]])
		}
		if err != nil {
			res.fail(err)
			continue
		}
		if t != nil {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
		last = p.data
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return nil, fmt.Errorf("no successful pipeline ops")
	}
	pipelineMetrics(res, tr, traced, untraced)

	// The daemon serving the workload's schema at its serve count, to
	// the daemon-mix loop.
	if err := tracedService(ctx, cfg, w, dir, base, sd, tr, res, half); err != nil {
		return nil, err
	}

	if err := runLanes(ctx, w, base, n, hot[0], last, dir, tr, res); err != nil {
		return nil, err
	}

	printSelfTimes(os.Stderr, tr.selfTimes())
	tracePath := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
	if err := tr.write(tracePath, env); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "spans written to", tracePath)
	return res, ctx.Err()
}

// checkTable compares one exported file with its reference digest.
func checkTable(dir, name, want string) error {
	got, err := hashFile(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("gate: in-process %s has sha256 %.12s, CLI export has %.12s", name, got, want)
	}
	return nil
}

func pipelineMetrics(res *result, tr *tracer, traced, untraced []pipeOp) {
	pick := func(ops []pipeOp, f func(pipeOp) float64) float64 {
		xs := make([]float64, len(ops))
		for i, p := range ops {
			xs[i] = f(p)
		}
		return median(xs)
	}
	spanMedian := func(name string, unit time.Duration) float64 {
		return median(scaled(tr.durations(name), float64(unit)))
	}
	res.set("dsl.parse_ms", spanMedian("dsl.Parse", time.Millisecond))
	res.set("dsl.override_ms", spanMedian("dsl.Override", time.Millisecond))
	res.set("depgraph.analyze_ms", spanMedian("depgraph.Analyze", time.Millisecond))
	res.set("core.canonical_ms", spanMedian("core.CanonicalHash", time.Millisecond))
	res.set("core.generate_s", spanMedian("core.GenerateCtx", time.Second))
	res.set("table.export_s", spanMedian("table.ExportCtx", time.Second))
	res.set("core.critical_path_s", pick(traced, func(p pipeOp) float64 { return p.critical.Seconds() }))
	res.set("core.parallelism", pick(traced, func(p pipeOp) float64 { return p.taskSum.Seconds() / p.generate.Seconds() }))
	res.set("core.alloc_mb", pick(traced, func(p pipeOp) float64 { return float64(p.allocBytes) / mib }))
	kind := func(ks ...depgraph.TaskKind) func(pipeOp) float64 {
		return func(p pipeOp) float64 {
			var d time.Duration
			for _, k := range ks {
				d += p.byKind[k]
			}
			return d.Seconds()
		}
	}
	res.set("pgen.node_prop_s", pick(traced, kind(depgraph.TaskProperty)))
	res.set("pgen.edge_prop_s", pick(traced, kind(depgraph.TaskEdgeProperty)))
	res.set("sgen.structure_s", pick(traced, kind(depgraph.TaskStructure)))
	res.set("match.match_s", pick(traced, kind(depgraph.TaskMatch)))
	res.set("table.export_mb_per_s", pick(traced, func(p pipeOp) float64 {
		return float64(p.exportBytes) / mib / p.export.Seconds()
	}))
	wall := func(p pipeOp) float64 { return p.wall.Seconds() }
	on, off := pick(traced, wall), pick(untraced, wall)
	res.set("trace.gen_overhead_pct", 100*(on/off-1))
	fmt.Fprintf(os.Stderr, "tracing overhead: pipeline op p50 traced %.4f s, untraced %.4f s (%d/%d ops)\n",
		on, off, len(traced), len(untraced))
}

// tracedService runs the daemon phase of the traced run: daemon-mix's
// loop on entries of the workload's serve count.
func tracedService(ctx context.Context, cfg config, w *workload, dir, base string, sd seeds, tr *tracer, res *result, d time.Duration) error {
	n := cfg.scaled(w.serve)
	scenario, err := resolve(base, w.sized, n, sd.schema)
	if err != nil {
		return err
	}
	hs, err := exportHotSet(ctx, cfg, w, base, filepath.Join(dir, "serve"), n, sd.hot)
	if err == nil {
		_, err = hs.check(w)
	}
	if err != nil {
		return fmt.Errorf("service direct export: %w", err)
	}
	conns := min(2, runtime.NumCPU())
	dm, err := setUpDaemon(ctx, cfg, w, filepath.Join(dir, "daemon"), scenario, n, hs, coldSlots, conns)
	if err != nil {
		return fmt.Errorf("service setup: %w", err)
	}
	m, err := measureMix(ctx, dm, mixConfig{
		w: w, n: n, hs: hs, coldBase: sd.cold, mixSeed: sd.mix,
		clients: conns, deadline: time.Now().Add(d), tr: tr,
	})
	if err != nil {
		return err
	}
	var submits, queue, run, cold, warmOn, warmOff []time.Duration
	var dlBytes int64
	var dlTime time.Duration
	var hits, colds int
	for _, r := range m.ops {
		res.Attempted++
		if !r.ok {
			res.fail(r.err)
			continue
		}
		submits = append(submits, r.submit)
		dlBytes += r.bytes
		dlTime += r.dl
		switch {
		case r.cold:
			colds++
			cold = append(cold, r.latency)
			queue = append(queue, r.queue)
			run = append(run, r.run)
		case r.traced:
			hits++
			warmOn = append(warmOn, r.latency)
		default:
			hits++
			warmOff = append(warmOff, r.latency)
		}
	}
	res.set("service.submit_ms_p50", percentile(millis(submits), 50))
	res.set("service.download_mb_per_s", float64(dlBytes)/mib/dlTime.Seconds())
	res.set("service.queue_wait_ms_p50", percentile(millis(queue), 50))
	res.set("service.run_ms_p50", percentile(millis(run), 50))
	res.setP90("service.cold_ms_p90", millis(cold))
	res.set("service.hit_ratio", float64(hits)/float64(hits+colds))
	res.set("service.lru_evictions_per_cold_op", float64(m.evictions)/float64(colds))
	res.set("service.generations_per_cold_op", float64(m.generations)/float64(colds))
	on, off := percentile(millis(warmOn), 50), percentile(millis(warmOff), 50)
	res.set("trace.warm_overhead_pct", 100*(on/off-1))
	fmt.Fprintf(os.Stderr, "tracing overhead: warm op p50 traced %.4f ms, untraced %.4f ms (%d/%d ops); %d cold ops\n",
		on, off, len(warmOn), len(warmOff), colds)
	return nil
}
