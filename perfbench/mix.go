package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// mixConfig drives a closed loop of daemon clients. Each client sends
// its next op only after the previous one completes.
type mixConfig struct {
	w        *workload // every op submits w's scenario and downloads w.table
	n        int64     // the scenario's count
	hs       hotSet
	coldBase uint64
	mixSeed  uint64
	clients  int
	deadline time.Time
	// tr records spans for every other op; the rest measure the
	// untraced cost. A nil tr records none.
	tr *tracer
}

// coldEvery: each client's ops come in blocks of coldEvery with one cold
// op at a seeded position, so at most two colds run back to back per
// client and the hot set is touched between them. The share is an
// assumption, not measured traffic; BENCHMARK.md gives its reasons.
const coldEvery = 4

// opRecord is one finished daemon op.
type opRecord struct {
	cold    bool
	traced  bool
	ok      bool
	err     error
	latency time.Duration
	submit  time.Duration
	dl      time.Duration
	bytes   int64
	queue   time.Duration // job created -> started (cold)
	run     time.Duration // job started -> finished (cold)
}

// runMix runs the closed loop until the deadline and returns every op.
func runMix(ctx context.Context, d *daemon, cfg mixConfig) []opRecord {
	var (
		mu      sync.Mutex
		records []opRecord
		coldSeq atomic.Uint64
		opSeq   atomic.Int64
		wg      sync.WaitGroup
	)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.mixSeed, uint64(c)))
			hot := cfg.hs.seeds
			hotAt := rng.IntN(len(hot))
			var buf bytes.Buffer
			var local []opRecord
			for i, coldAt := 0, 0; time.Now().Before(cfg.deadline) && ctx.Err() == nil; i++ {
				if i%coldEvery == 0 {
					coldAt = i + rng.IntN(coldEvery)
				}
				op := opSeq.Add(1)
				tr := cfg.tr
				if op%2 == 0 {
					tr = nil
				}
				var seed uint64
				cold := i == coldAt
				if cold {
					seed = cfg.coldBase + coldSeq.Add(1)
				} else {
					seed = hot[hotAt%len(hot)]
					hotAt++
				}
				rec := mixOp(d, cfg, tr, op, seed, cold, &buf)
				rec.traced = tr != nil
				local = append(local, rec)
			}
			mu.Lock()
			records = append(records, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return records
}

// mixOp submits the scenario with seed by name, waits for a cold job,
// downloads the table and checks it against the manifest digest (and
// the direct export's digest for a hot seed). Only the client-visible
// calls are timed; the digest check is not.
func mixOp(d *daemon, cfg mixConfig, tr *tracer, op int64, seed uint64, cold bool, buf *bytes.Buffer) opRecord {
	rec := opRecord{cold: cold}
	kind := "bench.warm"
	if cold {
		kind = "bench.cold"
	}
	start := time.Now()
	root := tr.begin(op, -1, kind)
	sp := tr.begin(op, root, "service.submit")
	v, err := d.submit(scenarioName, overrides(cfg.w.sized, cfg.n, seed), cfg.w.format)
	tr.end(sp)
	rec.submit = time.Since(start)
	if err == nil && !cold && !v.CacheHit {
		err = fmt.Errorf("warm submit of seed %d was not a cache hit", seed)
	}
	if err == nil && v.Status != "done" {
		sp = tr.begin(op, root, "service.poll")
		v, err = d.wait(v.ID)
		tr.end(sp)
	}
	if err == nil {
		t := time.Now()
		sp = tr.begin(op, root, "service.download")
		err = d.download(v.ID, cfg.w.table, buf)
		tr.end(sp)
		rec.dl = time.Since(t)
		rec.bytes = int64(buf.Len())
	}
	tr.end(root)
	rec.latency = time.Since(start)
	if err == nil {
		err = checkDownload(v, cfg.w.table, buf.Bytes(), cfg.hs.want[seed])
	}
	if cold && v.Started != nil && v.Finished != nil {
		rec.queue = v.Started.Sub(v.Created)
		rec.run = v.Finished.Sub(*v.Started)
	}
	rec.ok, rec.err = err == nil, err
	return rec
}

// checkDownload compares a download with its manifest digest and, when
// known, with the digest of a direct export of the same schema.
func checkDownload(v jobView, file string, body []byte, direct string) error {
	got := hashBytes(body)
	want, ok := v.fileSHA(file)
	if !ok {
		return fmt.Errorf("gate: job %s manifest lists no %s", v.ID, file)
	}
	if got != want {
		return fmt.Errorf("gate: %s of job %s has sha256 %.12s, manifest says %.12s", file, v.ID, got, want)
	}
	if direct != "" && got != direct {
		return fmt.Errorf("gate: %s of job %s has sha256 %.12s, direct export has %.12s", file, v.ID, got, direct)
	}
	return nil
}
