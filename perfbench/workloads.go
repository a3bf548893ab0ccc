package main

import (
	"fmt"
	"math/rand/v2"
	"os/exec"
	"slices"
	"strconv"

	"datasynth/internal/dsl"
)

// workload is one set of inputs the benchmark drives the program with.
type workload struct {
	name string
	// schema returns the base DSL text; example is the program's own
	// `datasynth -example` output (the paper's Figure 1 schema).
	schema func(example string) string
	// sized is the node type whose count the workload sets; count is
	// that count at scale 1.
	sized string
	count int64
	// serve is the count of the entries the traced run's daemon phase
	// serves. It is daemon-mix's size or near it, so that the phase has
	// enough cold ops for a p90 (a batch workload's own entries take
	// over a second each).
	serve int64
	// format is the export format of every op.
	format string
	// table is the file a daemon client downloads.
	table string
	// rows gives the exact row count of files the schema fixes, as a
	// function of the sized count.
	rows func(n int64) map[string]int64
	// equal lists pairs of files the schema gives the same row count.
	equal [][2]string
	// labels names the node file and column, and the edge file, that
	// match_l1 is computed from.
	nodeFile, column, edgeFile string
	// lane is the structure generator whose output feeds the SBM-Part
	// and CSR-build lanes: "lfr" or "rmat".
	lane string
	// daemon marks the workload driven through datasynthd.
	daemon bool
}

// rmatSchema is the rmat-columnar schema: one RMAT-structured node type
// with a 16-value categorical correlated with the structure, and an int
// edge column.
const rmatSchema = `graph rmat {
  seed = 1
  node V {
    count = 262144
    property group : string = categorical(values="g0|g1|g2|g3|g4|g5|g6|g7|g8|g9|g10|g11|g12|g13|g14|g15")
  }
  edge link : V *-* V {
    structure = rmat(edgeFactor=16)
    correlate group homophily 0.7
    property weight : int = uniform-int(lo=0, hi=1000000)
  }
}
`

func figure1(example string) string { return example }

func personRows(n int64) map[string]int64 { return map[string]int64{"nodes_Person.csv": n} }

// figure1Equal: creates is 1-*, so it makes exactly one edge per Message.
var figure1Equal = [][2]string{{"nodes_Message.csv", "edges_creates.csv"}}

var workloads = []*workload{
	{
		name:     "social-csv",
		schema:   figure1,
		sized:    "Person",
		count:    200000,
		serve:    10000,
		format:   "csv",
		table:    "edges_knows.csv",
		rows:     personRows,
		equal:    figure1Equal,
		nodeFile: "nodes_Person.csv", column: "country", edgeFile: "edges_knows.csv",
		lane: "lfr",
	},
	{
		name:   "rmat-columnar",
		schema: func(string) string { return rmatSchema },
		sized:  "V",
		count:  262144,
		serve:  16384,
		format: "columnar",
		table:  "edges_link.dsc",
		rows: func(n int64) map[string]int64 {
			return map[string]int64{"nodes_V.dsc": n, "edges_link.dsc": 16 * n}
		},
		nodeFile: "nodes_V.dsc", column: "group", edgeFile: "edges_link.dsc",
		lane: "rmat",
	},
	{
		name:     "daemon-mix",
		schema:   figure1,
		sized:    "Person",
		count:    10000,
		serve:    10000,
		format:   "csv",
		table:    "edges_knows.csv",
		rows:     personRows,
		equal:    figure1Equal,
		nodeFile: "nodes_Person.csv", column: "country", edgeFile: "edges_knows.csv",
		lane:   "lfr",
		daemon: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// exampleSchema asks the datasynth binary for its example schema.
func exampleSchema(bin string) (string, error) {
	out, err := exec.Command(bin, "-example").Output()
	if err != nil {
		return "", fmt.Errorf("datasynth -example: %w", err)
	}
	return string(out), nil
}

// resolve applies the workload's count and a seed to the base schema
// with dsl.Override and returns the canonical text: the same schema a
// submit-by-name with these overrides resolves to.
func resolve(base, sized string, count int64, seed uint64) (string, error) {
	s, err := dsl.Parse(base)
	if err != nil {
		return "", err
	}
	if err := dsl.Override(s, overrides(sized, count, seed)); err != nil {
		return "", err
	}
	return dsl.Print(s), nil
}

func overrides(sized string, count int64, seed uint64) map[string]string {
	return map[string]string{
		"seed":           strconv.FormatUint(seed, 10),
		sized + ".count": strconv.FormatInt(count, 10),
	}
}

// seeds derives every seed of a run from the benchmark seed: the
// schema seed, the daemon's hot set, the base of its cold seeds and the
// per-client op-mix streams.
type seeds struct {
	schema uint64
	hot    []uint64
	cold   uint64
	mix    uint64
}

func deriveSeeds(seed uint64, hot int) seeds {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	s := seeds{schema: r.Uint64N(1 << 31)}
	for len(s.hot) < hot {
		if h := r.Uint64N(1 << 31); !slices.Contains(s.hot, h) && h != s.schema {
			s.hot = append(s.hot, h)
		}
	}
	// Cold seeds count up from a base above every hot seed, so a cold
	// op never lands on a cached entry.
	s.cold = 1<<40 + r.Uint64N(1<<40)
	s.mix = r.Uint64()
	return s
}
