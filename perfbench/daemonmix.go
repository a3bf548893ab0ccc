package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

const (
	// hotSeeds is the size of daemon-mix's cached hot set. It and
	// coldSlots are assumptions; BENCHMARK.md gives their reasons.
	hotSeeds = 4
	// coldSlots is how many cold entries fit in the cache beside the hot
	// set. With one cold op per coldEvery ops per client, a hot entry
	// is touched long before this many colds are stored after it, so
	// LRU eviction takes only cold entries.
	coldSlots = 12
	// scenarioName is the name the workload's schema is registered as.
	scenarioName = "bench"
	// daemonSetupReps is how many times daemon-mix sets up; setup_s is
	// the median. A set-up takes a fraction of a second, so it repeats
	// more often than a batch set-up.
	daemonSetupReps = 9
)

// hotSet is a daemon workload's cached seeds and what their downloads
// must equal: the digest of a direct CLI export of the same schema.
type hotSet struct {
	seeds      []uint64
	want       map[uint64]string
	entryBytes int64 // largest export of a hot seed, all files
	// exports holds each seed's export directory and schema until check
	// has read them.
	exports map[uint64]string
	inputs  map[uint64]batchInput
}

// exportHotSet exports every hot seed's schema with the CLI.
func exportHotSet(ctx context.Context, cfg config, w *workload, base, dir string, n int64, hot []uint64) (hotSet, error) {
	hs := hotSet{seeds: hot, want: map[uint64]string{}, exports: map[uint64]string{}, inputs: map[uint64]batchInput{}}
	for _, seed := range hot {
		sub := filepath.Join(dir, "direct-"+strconv.FormatUint(seed, 10))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return hs, err
		}
		in, err := newBatchInput(sub, w, base, n, seed)
		if err != nil {
			return hs, err
		}
		out := filepath.Join(sub, "out")
		if _, err := exportCLI(ctx, cfg.datasynth(), in.path, out, w.format); err != nil {
			return hs, err
		}
		hs.exports[seed], hs.inputs[seed] = out, in
		d, err := hashDir(out)
		if err != nil {
			return hs, err
		}
		hs.want[seed] = d[w.table]
		var size int64
		for name := range d {
			st, err := os.Stat(filepath.Join(out, name))
			if err != nil {
				return hs, err
			}
			size += st.Size()
		}
		hs.entryBytes = max(hs.entryBytes, size)
	}
	return hs, nil
}

// check runs checkOutput on every hot seed's export, after the
// measured ops for the reason checkOutput gives, and returns the L1s.
func (hs hotSet) check(w *workload) ([]float64, error) {
	var l1s []float64
	for _, seed := range hs.seeds {
		l1, err := checkOutput(hs.exports[seed], w, hs.inputs[seed])
		if err != nil {
			return nil, fmt.Errorf("hot seed %d: %w", seed, err)
		}
		l1s = append(l1s, l1)
		if err := os.RemoveAll(hs.exports[seed]); err != nil {
			return nil, err
		}
	}
	return l1s, nil
}

// setUpDaemon starts datasynthd, registers the scenario and fills the
// hot set, checking each hot download against its direct export.
func setUpDaemon(ctx context.Context, cfg config, w *workload, dir, scenario string, n int64, hs hotSet, slots, conns int) (*daemon, error) {
	// Entries of other seeds differ slightly in size; the margin keeps
	// the hot set plus slots cold entries under the bound.
	cacheMax := int64(float64(int64(len(hs.seeds)+slots)*hs.entryBytes) * 1.25)
	d, err := startDaemon(ctx, cfg.datasynthd(), dir, cacheMax, conns)
	if err != nil {
		return nil, err
	}
	if err := fillHotSet(d, w, scenario, n, hs); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func fillHotSet(d *daemon, w *workload, scenario string, n int64, hs hotSet) error {
	if err := d.putScenario(scenarioName, scenario); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, seed := range hs.seeds {
		v, err := d.submit(scenarioName, overrides(w.sized, n, seed), w.format)
		if err == nil {
			v, err = d.wait(v.ID)
		}
		if err == nil {
			err = d.download(v.ID, w.table, &buf)
		}
		if err == nil {
			err = checkDownload(v, w.table, buf.Bytes(), hs.want[seed])
		}
		if err != nil {
			return fmt.Errorf("filling hot seed %d: %w", seed, err)
		}
	}
	return nil
}

// runDaemonMix measures datasynthd under a closed loop of clients that
// mix warm ops (submit a cached hot seed by name, download) with cold
// ops (submit a fresh seed, long-poll, download).
func runDaemonMix(ctx context.Context, cfg config, w *workload, example string) (*result, error) {
	dir, err := workDir(cfg, w.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sd := deriveSeeds(cfg.seed, hotSeeds)
	n := cfg.count(w)
	scenario, err := resolve(w.schema(example), w.sized, n, sd.schema)
	if err != nil {
		return nil, err
	}
	hs, err := exportHotSet(ctx, cfg, w, w.schema(example), dir, n, sd.hot)
	if err != nil {
		return nil, fmt.Errorf("direct export: %w", err)
	}
	conns := min(2, runtime.NumCPU())

	var setups []time.Duration
	var d *daemon
	for i := range daemonSetupReps {
		start := time.Now()
		d, err = setUpDaemon(ctx, cfg, w, filepath.Join(dir, "daemon"), scenario, n, hs, coldSlots, conns)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
		if i < daemonSetupReps-1 {
			d.stop()
		}
	}
	m, err := measureMix(ctx, d, mixConfig{
		w: w, n: n, hs: hs, coldBase: sd.cold, mixSeed: sd.mix,
		clients: conns, deadline: time.Now().Add(cfg.seconds),
	})
	if err != nil {
		return nil, err
	}
	l1s, err := hs.check(w)
	if err != nil {
		return nil, err
	}
	res := &result{}
	var warm, cold []time.Duration
	for _, r := range m.ops {
		res.Attempted++
		switch {
		case !r.ok:
			res.fail(r.err)
		case r.cold:
			cold = append(cold, r.latency)
		default:
			warm = append(warm, r.latency)
		}
	}
	ok := len(warm) + len(cold)
	res.set("setup_s", median(seconds(setups)))
	res.set("gen_s_p50", median(seconds(cold)))
	res.set("warm_ms_p50", percentile(millis(warm), 50))
	res.setP90("warm_ms_p90", millis(warm))
	res.set("ops_per_s", float64(ok)/m.wall.Seconds())
	res.set("peak_rss_mb", float64(m.rss)/mib)
	res.set("match_l1", median(l1s))
	res.set("success_ratio", float64(ok)/float64(max(res.Attempted, 1)))
	summarize("cold", seconds(cold), "s")
	summarize("warm", millis(warm), "ms")
	return res, ctx.Err()
}

// mixRun is one measured closed loop and the daemon's counters over it.
type mixRun struct {
	ops         []opRecord
	wall        time.Duration
	rss         int64
	evictions   int64
	generations int64
}

// measureMix runs the loop on a set-up daemon, then stops the daemon.
func measureMix(ctx context.Context, d *daemon, mc mixConfig) (mixRun, error) {
	var m mixRun
	before, err := d.stats()
	if err != nil {
		d.stop()
		return m, err
	}
	cpu, start := sampleCPU(), time.Now()
	m.ops = runMix(ctx, d, mc)
	m.wall = time.Since(start)
	fmt.Fprintf(os.Stderr, "perfbench: %.1f%% of CPU time stolen during the loop\n", 100*stolenSince(cpu))
	after, err := d.stats()
	m.rss = d.stop()
	m.evictions = after.Cache.LRUEvictions - before.Cache.LRUEvictions
	m.generations = after.Generations - before.Generations
	return m, err
}
