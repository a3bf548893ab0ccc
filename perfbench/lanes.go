package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
	"datasynth/internal/graph"
	"datasynth/internal/match"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/table"
)

// laneOp is the op id of lane spans, apart from the pipeline's ops.
const laneOp = -1

// lane times fn at 1 worker and at nproc workers, each call as a span
// named name, and prints the serial fraction Amdahl's law gives for the
// pair. Small inputs are repeated, alternating the two worker counts,
// until about a second has been spent on each; the medians are kept.
func lane(tr *tracer, name string, fn func(workers int) error) (w1, wn time.Duration, err error) {
	n := runtime.NumCPU()
	timed := func(workers int) (time.Duration, error) {
		start := time.Now()
		sp := tr.begin(laneOp, -1, name)
		err := fn(workers)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("lane %s at %d workers: %w", name, workers, err)
		}
		return time.Since(start), nil
	}
	var ones, ns []time.Duration
	for reps := 1; len(ones) < reps; {
		t1, err := timed(1)
		if err != nil {
			return 0, 0, err
		}
		tn, err := timed(n)
		if err != nil {
			return 0, 0, err
		}
		ones, ns = append(ones, t1), append(ns, tn)
		if len(ones) == 1 {
			reps = min(9, max(1, int(time.Second/max(t1, tn))))
		}
	}
	w1 = time.Duration(median(scaled(ones, 1)))
	wn = time.Duration(median(scaled(ns, 1)))
	fmt.Fprintf(os.Stderr, "lane %-24s w1 %9.4f s  w%d %9.4f s  speedup %5.2f  serial fraction %s  (%d reps)\n",
		name, w1.Seconds(), n, wn.Seconds(), w1.Seconds()/wn.Seconds(), serialFraction(w1, wn, n), len(ones))
	return w1, wn, nil
}

// serialFraction solves Amdahl's law t_n = t_1·(f + (1−f)/n) for f.
func serialFraction(w1, wn time.Duration, n int) string {
	if n < 2 {
		return "n/a (1 cpu)"
	}
	speedup := w1.Seconds() / wn.Seconds()
	f := (float64(n)/speedup - 1) / float64(n-1)
	return fmt.Sprintf("%.2f", f)
}

// runLanes runs the worker-scaling lanes on inputs of the workload's
// size: RMAT and LFR structure, SBM-Part serial vs the default window,
// CSV export, and Engine.GenerateCtx; then the columnar read side.
func runLanes(ctx context.Context, w *workload, base string, n int64, seed uint64, data *table.Dataset, dir string, tr *tracer, res *result) error {
	var rmatDraws float64
	edges := map[string]*table.EdgeTable{}
	rmat1, rmatN, err := lane(tr, "sgen.RMAT.Run", func(workers int) error {
		g := sgen.NewRMAT(seed)
		g.Workers = workers
		et, err := g.Run(n)
		if err != nil {
			return err
		}
		edges["rmat"] = et
		// RunNote reads "rmat <r> rounds, <x> draws/edge, <w> workers".
		_, rest, _ := strings.Cut(g.RunNote(), ", ")
		if _, err := fmt.Sscanf(rest, "%g draws/edge", &rmatDraws); err != nil {
			return fmt.Errorf("parsing RMAT run note %q: %w", g.RunNote(), err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lfr1, lfrN, err := lane(tr, "sgen.LFR.Run", func(workers int) error {
		g := sgen.NewLFR(seed)
		g.Workers = workers
		et, err := g.Run(n)
		edges["lfr"] = et
		return err
	})
	if err != nil {
		return err
	}

	sp := tr.begin(laneOp, -1, "graph.FromEdgeTable")
	start := time.Now()
	g, err := graph.FromEdgeTable(edges[w.lane], n)
	build := time.Since(start)
	tr.end(sp)
	if err != nil {
		return err
	}
	part, err := sbmLanePartitioner(n)
	if err != nil {
		return err
	}
	order := rand.New(rand.NewPCG(seed, 1)).Perm(int(n))
	order64 := make([]int64, n)
	for i, v := range order {
		order64[i] = int64(v)
	}
	sbmSerial, sbmWindowed, err := lane(tr, "match.SBMPart.Partition", func(workers int) error {
		// One worker streams serially; nproc workers use the default
		// window, which is what the engine picks on a multi-core host.
		part.Window, part.Workers = 1, 1
		if workers > 1 {
			part.Window, part.Workers = match.DefaultWindow, workers
		}
		_, err := part.Partition(g, order64)
		return err
	})
	if err != nil {
		return err
	}

	exportDir := filepath.Join(dir, "lane-export")
	export1, exportN, err := lane(tr, "table.ExportCtx.csv", func(workers int) error {
		if err := os.RemoveAll(exportDir); err != nil {
			return err
		}
		_, err := data.ExportCtx(ctx, exportDir, table.ExportOptions{Format: table.FormatCSV, Workers: workers})
		return err
	})
	if err != nil {
		return err
	}

	gen1, genN, err := lane(tr, "core.GenerateCtx", func(workers int) error {
		text, err := resolve(base, w.sized, n, seed)
		if err != nil {
			return err
		}
		s, err := dsl.Parse(text)
		if err != nil {
			return err
		}
		eng := core.New(s)
		eng.Workers = workers
		_, err = eng.GenerateCtx(ctx)
		return err
	})
	if err != nil {
		return err
	}

	// Read side: the workload's dataset as columnar files, loaded back.
	colDir := filepath.Join(dir, "lane-columnar")
	if err := os.RemoveAll(colDir); err != nil {
		return err
	}
	if _, err := data.ExportCtx(ctx, colDir, table.ExportOptions{Format: table.FormatColumnar}); err != nil {
		return err
	}
	sp = tr.begin(laneOp, -1, "table.OpenColumnar")
	start = time.Now()
	_, err = table.OpenColumnar(colDir)
	open := time.Since(start)
	tr.end(sp)
	if err != nil {
		return err
	}

	res.set("sgen.rmat_s.w1", rmat1.Seconds())
	res.set("sgen.rmat_s.wn", rmatN.Seconds())
	res.set("sgen.rmat_draws_per_edge", rmatDraws)
	res.set("sgen.lfr_s.w1", lfr1.Seconds())
	res.set("sgen.lfr_s.wn", lfrN.Seconds())
	res.set("graph.build_ms", float64(build)/float64(time.Millisecond))
	res.set("match.sbm_serial_s", sbmSerial.Seconds())
	res.set("match.sbm_windowed_s", sbmWindowed.Seconds())
	res.set("table.export_s.w1", export1.Seconds())
	res.set("table.export_s.wn", exportN.Seconds())
	res.set("core.generate_s.w1", gen1.Seconds())
	res.set("core.generate_s.wn", genN.Seconds())
	res.set("table.open_columnar_s", open.Seconds())
	return nil
}

// sbmLanePartitioner is SBM-Part over n nodes in 16 near-equal groups
// with a 0.7 homophily target.
func sbmLanePartitioner(n int64) (*match.SBMPart, error) {
	const k = 16
	caps := make([]int64, k)
	for i := range caps {
		caps[i] = n / k
		if int64(i) < n%k {
			caps[i]++
		}
	}
	target, err := stats.HomophilyJoint(caps, 0.7)
	if err != nil {
		return nil, err
	}
	return match.NewSBMPart(target, caps)
}
