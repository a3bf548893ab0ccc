// Command perfbench is the repository's benchmark. It drives the built
// datasynth CLI and the datasynthd daemon from outside, the way users
// do, checks every output, and prints the end-to-end metrics; with
// --trace 1 it instead runs the pipeline in process with spans around
// each layer's public functions and prints the per-layer metrics.
//
//	bash perfbench/run.sh --workload social-csv --seed 1 --seconds 30 --trace 0
//
// See BENCHMARK.md next to this file for the metrics and workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	bin     string // directory holding the built datasynth and datasynthd
	work    string // scratch directory for outputs, caches and traces
	seed    uint64
	seconds time.Duration
	// scale multiplies the workload's node count; 1 outside the tests,
	// which run tiny sizes.
	scale float64
}

func (c config) count(w *workload) int64 { return c.scaled(w.count) }

func (c config) scaled(n int64) int64 {
	return max(1000, int64(math.Round(float64(n)*c.scale)))
}

func (c config) datasynth() string  { return filepath.Join(c.bin, "datasynth") }
func (c config) datasynthd() string { return filepath.Join(c.bin, "datasynthd") }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict, printed as the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// tails holds, for each p90 metric, how many samples lie beyond it.
	tails map[string]int
}

// set records a metric; the unit comes from the metric tables.
func (r *result) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// setP90 records the nearest-rank p90 of xs as a metric, and how many
// samples lie beyond it, which finish checks.
func (r *result) setP90(name string, xs []float64) {
	r.set(name, percentile(xs, 90))
	if r.tails == nil {
		r.tails = map[string]int{}
	}
	r.tails[name] = beyond(len(xs), 90)
}

// minBeyond is how many samples must lie beyond a reported p90, so
// that it is not in effect the maximum of a handful of ops.
const minBeyond = 10

// fail counts a failed op and reports why on stderr.
func (r *result) fail(err error) {
	r.Failed++
	fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
}

// finish checks that every metric of the mode is present and finite,
// and that every p90 has at least minBeyond samples beyond it.
func (r *result) finish(names []string) error {
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no finite value (no samples?)", n)
		}
	}
	for n, k := range r.tails {
		if k < minBeyond {
			return fmt.Errorf("metric %s has %d samples beyond it, want at least %d", n, k, minBeyond)
		}
	}
	if len(r.Metrics) != len(names) {
		return fmt.Errorf("%d metrics measured, want %d", len(r.Metrics), len(names))
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return nil
}

func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
}

func main() {
	var (
		name  = flag.String("workload", "", "workload: social-csv, rmat-columnar or daemon-mix")
		seed  = flag.Uint64("seed", 1, "benchmark seed; every input of the run derives from it")
		secs  = flag.Int("seconds", 30, "measured time of the run")
		trace = flag.Int("trace", 0, "1 runs the traced mode and prints per-layer metrics")
		cfg   config
	)
	flag.StringVar(&cfg.bin, "bin", "", "directory with the built datasynth and datasynthd")
	flag.StringVar(&cfg.work, "work", "", "scratch directory")
	flag.Parse()
	cfg.seed, cfg.seconds, cfg.scale = *seed, time.Duration(*secs)*time.Second, 1
	if cfg.bin == "" || cfg.work == "" || *secs <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := envStamp(".", cfg.seed)
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(envLine))

	var res *result
	names := metricNames(endToEnd)
	if *trace == 1 {
		names = metricNames(perLayer)
		res, err = runTraced(ctx, cfg, w, env)
	} else {
		res, err = run(ctx, cfg, w)
	}
	if err == nil {
		err = res.finish(names)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	fmt.Fprintf(os.Stderr, "%s seed %d (trace %d):\n", w.name, cfg.seed, *trace)
	res.print(os.Stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures a workload untraced.
func run(ctx context.Context, cfg config, w *workload) (*result, error) {
	example, err := exampleSchema(cfg.datasynth())
	if err != nil {
		return nil, err
	}
	if w.daemon {
		return runDaemonMix(ctx, cfg, w, example)
	}
	return runBatch(ctx, cfg, w, example)
}

// workDir recreates a scratch directory under cfg.work.
func workDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
