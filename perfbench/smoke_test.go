package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// buildPrograms builds datasynth and datasynthd from the parent
// module into a temporary directory.
func buildPrograms(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/datasynth", "./cmd/datasynthd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building the programs: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload untraced and traced at a tiny size and
// checks that each mode reports all of its metrics with no failed op.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	bin := buildPrograms(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{
				bin: bin, work: filepath.Join(t.TempDir(), "work"),
				seed: 7, seconds: 4 * time.Second, scale: 0.001,
			}
			ctx := context.Background()
			res, err := run(ctx, cfg, w)
			if err == nil {
				err = res.finish(metricNames(endToEnd))
			}
			if err != nil || !res.Correct {
				t.Fatalf("untraced: err %v, result %+v", err, res)
			}
			res, err = runTraced(ctx, cfg, w, envStamp("..", cfg.seed))
			if err == nil {
				err = res.finish(metricNames(perLayer))
			}
			if err != nil || !res.Correct {
				t.Fatalf("traced: err %v, result %+v", err, res)
			}
		})
	}
}
