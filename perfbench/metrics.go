package main

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// endToEnd lists the metrics an untraced run reports, with units. Every
// workload reports every one; BENCHMARK.json carries the same names
// with their direction and bound.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"gen_s_p50", "s"},
	{"warm_ms_p50", "ms"},
	{"warm_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"match_l1", "1"},
	{"success_ratio", "ratio"},
}

// perLayer lists the metrics a traced run reports.
var perLayer = [][2]string{
	{"dsl.parse_ms", "ms"},
	{"dsl.override_ms", "ms"},
	{"depgraph.analyze_ms", "ms"},
	{"core.canonical_ms", "ms"},
	{"core.generate_s", "s"},
	{"core.critical_path_s", "s"},
	{"core.parallelism", "ratio"},
	{"core.alloc_mb", "MiB"},
	{"core.generate_s.w1", "s"},
	{"core.generate_s.wn", "s"},
	{"pgen.node_prop_s", "s"},
	{"pgen.edge_prop_s", "s"},
	{"sgen.structure_s", "s"},
	{"sgen.rmat_s.w1", "s"},
	{"sgen.rmat_s.wn", "s"},
	{"sgen.rmat_draws_per_edge", "ratio"},
	{"sgen.lfr_s.w1", "s"},
	{"sgen.lfr_s.wn", "s"},
	{"match.match_s", "s"},
	{"match.sbm_serial_s", "s"},
	{"match.sbm_windowed_s", "s"},
	{"graph.build_ms", "ms"},
	{"table.export_s", "s"},
	{"table.export_mb_per_s", "MiB/s"},
	{"table.export_s.w1", "s"},
	{"table.export_s.wn", "s"},
	{"table.open_columnar_s", "s"},
	{"service.submit_ms_p50", "ms"},
	{"service.download_mb_per_s", "MiB/s"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.cold_ms_p90", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.lru_evictions_per_cold_op", "ratio"},
	{"service.generations_per_cold_op", "ratio"},
	{"trace.gen_overhead_pct", "%"},
	{"trace.warm_overhead_pct", "%"},
}

const mib = 1 << 20

func metricNames(table [][2]string) []string {
	out := make([]string, len(table))
	for i, m := range table {
		out[i] = m[0]
	}
	return out
}

func unitOf(name string) string {
	for _, t := range [][][2]string{endToEnd, perLayer} {
		for _, m := range t {
			if m[0] == name {
				return m[1]
			}
		}
	}
	panic("perfbench: metric " + name + " is in no metric table")
}

// envStamp records what a result was measured on.
func envStamp(root string, seed uint64) map[string]string {
	// The commit is known only when root is itself the top of a git
	// work tree, not merely somewhere inside another repository.
	commit := "unknown"
	abs, err := filepath.Abs(root)
	if err == nil {
		out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
		if lines := strings.Fields(string(out)); err == nil && len(lines) == 2 && lines[0] == abs {
			commit = lines[1]
		}
	}
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"seed":       strconv.FormatUint(seed, 10),
	}
}
