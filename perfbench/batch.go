package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
)

const (
	// setupReps is how many times a batch run sets up (one generation
	// op each); setup_s is the median.
	setupReps = 5
	// settle is the pause between a generation op and the next block
	// of warm ops.
	settle = 100 * time.Millisecond
	// minBlock is the fewest warm ops a block holds, so that small
	// schemas, whose generation ops are short, still gather a p90.
	minBlock = 8
	// warmReps: a batch warm op runs -validate this many times back to
	// back and keeps the fastest. Every -validate of a run does the
	// same work, so its slow samples come from the host (a few ms of
	// stolen CPU triple a 2 ms op); BENCHMARK.md gives the figures.
	warmReps = 3
)

// batchInput is a batch workload's schema, written for the CLI.
type batchInput struct {
	text, path string
	n          int64
	homophily  float64
	hash       string // canonical hash -validate must print
}

func newBatchInput(dir string, w *workload, base string, n int64, seed uint64) (batchInput, error) {
	text, err := resolve(base, w.sized, n, seed)
	if err != nil {
		return batchInput{}, err
	}
	s, err := dsl.Parse(text)
	if err != nil {
		return batchInput{}, err
	}
	in := batchInput{text: text, path: filepath.Join(dir, "schema.dsl"), n: n, hash: core.CanonicalHash(s)}
	for _, e := range s.Edges {
		if e.Correlation != nil && e.Correlation.Property == w.column {
			in.homophily = e.Correlation.Homophily
		}
	}
	return in, os.WriteFile(in.path, []byte(text), 0o644)
}

// checkOutput checks the row counts the schema fixes and computes
// match_l1 from one export. Both read whole files into the harness, so
// they run only after the measured ops: a program started by exec
// inherits its parent's RSS high-water mark in its own maxrss (Linux
// carries the pre-exec address space's peak over), so the harness must
// stay small while the programs whose peak RSS it reports run.
func checkOutput(dir string, w *workload, in batchInput) (float64, error) {
	if err := checkRows(dir, w.format, w.rows(in.n), w.equal); err != nil {
		return 0, err
	}
	return matchL1(dir, w.format, w.nodeFile, w.column, w.edgeFile, in.homophily)
}

// runBatch measures a CLI workload: each generation op runs
// `datasynth -schema … -out …` on the same schema, and each warm op
// runs `datasynth -validate` warmReps times, the CLI's no-generation
// path (parse, validate, canonical hash: the dataset's content address).
func runBatch(ctx context.Context, cfg config, w *workload, example string) (*result, error) {
	dir, err := workDir(cfg, w.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := newBatchInput(dir, w, w.schema(example), cfg.count(w), deriveSeeds(cfg.seed, 0).schema)
	if err != nil {
		return nil, err
	}
	out, first := filepath.Join(dir, "out"), filepath.Join(dir, "first")
	res := &result{}
	var ref digest
	// gen runs one generation op and gates its output against the
	// first op's files, which are kept for the row and L1 checks after
	// the measured ops. A checked output is deleted at once, so its
	// dirty pages are dropped, not written back during the next op.
	gen := func() (cliRun, error) {
		run, err := exportCLI(ctx, cfg.datasynth(), in.path, out, w.format)
		if err != nil {
			return run, err
		}
		got, err := hashDir(out)
		if err != nil {
			return run, err
		}
		if ref == nil {
			ref = got
			return run, os.Rename(out, first)
		}
		if err := ref.compare(got); err != nil {
			return run, err
		}
		return run, os.RemoveAll(out)
	}
	var setups []time.Duration
	for range setupReps {
		run, err := gen()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, run.wall)
	}

	// Generation ops alternate with blocks of warm ops, so both see
	// the host over the whole run. A block starts once the last
	// output's deletion has settled and lasts a fifth of the last
	// generation op, or minBlock ops if they take longer.
	var gens, warms []time.Duration
	var rss []float64
	validate := func() (time.Duration, error) {
		res.Attempted++
		var best time.Duration
		for i := range warmReps {
			run, err := runCLI(ctx, cfg.datasynth(), "-schema", in.path, "-validate")
			if err == nil && !bytes.Contains(run.stdout, []byte("canonical sha256: "+in.hash)) {
				err = fmt.Errorf("gate: -validate printed %q, want hash %s", run.stdout, in.hash)
			}
			if err != nil {
				return 0, err
			}
			if i == 0 || run.wall < best {
				best = run.wall
			}
		}
		return best, nil
	}
	cpu := sampleCPU()
	for deadline := time.Now().Add(cfg.seconds); time.Now().Before(deadline) && ctx.Err() == nil; {
		res.Attempted++
		run, err := gen()
		if err != nil {
			res.fail(err)
			continue
		}
		gens = append(gens, run.wall)
		rss = append(rss, float64(run.maxRSS)/mib)

		time.Sleep(settle)
		end := time.Now().Add(run.wall / 5)
		for k := 0; (k < minBlock || time.Now().Before(end)) && ctx.Err() == nil; k++ {
			d, err := validate()
			if err != nil {
				res.fail(err)
				continue
			}
			warms = append(warms, d)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %.1f%% of CPU time stolen during the measured ops\n", 100*stolenSince(cpu))
	l1, err := checkOutput(first, w, in)
	if err != nil {
		return nil, err
	}
	var genTotal time.Duration
	for _, g := range gens {
		genTotal += g
	}
	res.set("setup_s", median(seconds(setups)))
	res.set("gen_s_p50", median(seconds(gens)))
	res.set("warm_ms_p50", percentile(millis(warms), 50))
	res.setP90("warm_ms_p90", millis(warms))
	res.set("ops_per_s", float64(len(gens))/genTotal.Seconds())
	res.set("peak_rss_mb", median(rss))
	res.set("match_l1", l1)
	res.set("success_ratio", float64(len(gens)+len(warms))/float64(max(res.Attempted, 1)))
	summarize("gen", seconds(gens), "s")
	summarize("warm", millis(warms), "ms")
	return res, ctx.Err()
}
