// Command datasynth generates a property graph from a DSL schema:
//
//	datasynth -schema social.dsl -out ./dataset
//	datasynth -schema social.dsl -format columnar   # binary bulk-load files
//	datasynth -schema social.dsl -plan              # print the task plan only
//	datasynth -schema social.dsl -validate          # validate + canonical hash only
//	datasynth -scenario social.dsl -name figure3    # dry-run a scenario registration
//	datasynth -example                              # print a starter schema
//
// The output directory receives one file per node type and per edge
// type. -format selects the encoding: csv (default, the layout bulk
// loaders of property-graph databases expect), jsonl (one JSON object
// per row), or columnar (binary typed column blocks for fast bulk
// loads). Tables are written concurrently (-exportworkers) and the
// directory commits atomically — a failed export leaves no partial
// files. With -timings the report covers generation AND export, so the
// printed critical path is the true end-to-end pipeline floor.
package main

import (
	"flag"
	"fmt"
	"os"

	"datasynth/internal/core"
	"datasynth/internal/depgraph"
	"datasynth/internal/dsl"
	"datasynth/internal/scenario"
	"datasynth/internal/table"
)

// exampleSchema is the paper's Figure 1 running example.
const exampleSchema = `# DataSynth schema — the paper's running example (Figure 1).
graph social {
  seed = 42

  node Person {
    count = 10000
    property country : string = categorical(dict="countries")
    property sex     : string = categorical(values="M|F")
    property name    : string = dictionary() given (country, sex)
    property interest : string = zipf(dict="topics", theta="1.1")
    property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01")
  }

  node Message {
    property topic : string = categorical(dict="topics")
    property text  : string = text(min=3, max=12)
  }

  edge knows : Person *-* Person {
    structure = lfr(avgDegree=20, maxDegree=50, mu=0.1)
    correlate country homophily 0.8
    property creationDate : date = max-endpoint-date(maxDays=365) given (tail.creationDate, head.creationDate)
  }

  edge creates : Person 1-* Message {
    structure = powerlaw-out(min=1, max=20, gamma=2.0)
    property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01")
  }
}
`

func main() {
	schemaPath := flag.String("schema", "", "path to the DSL schema file")
	out := flag.String("out", "dataset", "output directory for the exported files")
	format := flag.String("format", "", "export format: csv (default), jsonl, columnar")
	jsonl := flag.Bool("jsonl", false, "write JSON-lines files (shorthand for -format jsonl)")
	planOnly := flag.Bool("plan", false, "print the dependency-analysis task plan and exit")
	validate := flag.Bool("validate", false, "parse and validate the schema, print its canonical hash, and exit without generating")
	scenarioFile := flag.String("scenario", "", "validate a DSL file as a scenario and print the canonical text + hash PUT /v1/scenarios would register; no generation")
	scenarioName := flag.String("name", "", "scenario name to check against the registry's naming rule (with -scenario)")
	example := flag.Bool("example", false, "print an example schema and exit")
	verbose := flag.Bool("v", false, "log task progress")
	workers := flag.Int("workers", 0, "scheduler and intra-task worker bound (0 = NumCPU, 1 = sequential); output is byte-identical at any count")
	exportWorkers := flag.Int("exportworkers", 0, "concurrent table writers during export (0 = inherit -workers, 1 = one table at a time); file bytes are identical at any count")
	timings := flag.Bool("timings", false, "print the per-task timing report and end-to-end critical path (generation + export)")
	flag.Parse()

	if *example {
		fmt.Print(exampleSchema)
		return
	}
	if *scenarioFile != "" {
		// Offline dry-run of a scenario registration. scenario.Validate
		// is the exact function the daemon's PUT handler runs, so a
		// schema this accepts — and the canonical text and hash it
		// prints — are what the registry would store.
		if *scenarioName != "" {
			if err := scenario.ValidateName(*scenarioName); err != nil {
				fatal(err)
			}
		}
		src, err := os.ReadFile(*scenarioFile)
		if err != nil {
			fatal(err)
		}
		val, err := scenario.Validate(string(src))
		if err != nil {
			fatal(err)
		}
		name := *scenarioName
		if name == "" {
			name = "<name>"
		}
		fmt.Printf("scenario %s: valid (%d node types, %d edge types, seed %d)\n",
			name, len(val.Schema.Nodes), len(val.Schema.Edges), val.Schema.Seed)
		fmt.Printf("canonical sha256: %s\n", val.Hash)
		fmt.Printf("canonical text PUT /v1/scenarios/%s would register:\n\n%s", name, val.Text)
		return
	}
	if *schemaPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*schemaPath)
	if err != nil {
		fatal(err)
	}
	s, err := dsl.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	if *validate {
		// The same validation + canonical-hash pipeline datasynthd runs
		// at job admission: the printed hash is the content address the
		// service caches the dataset under (combined with the format).
		if err := core.ValidateSchema(s); err != nil {
			fatal(err)
		}
		fmt.Printf("schema %s: valid (%d node types, %d edge types, seed %d)\n",
			s.Name, len(s.Nodes), len(s.Edges), s.Seed)
		fmt.Printf("canonical sha256: %s\n", core.CanonicalHash(s))
		return
	}
	if *planOnly {
		plan, err := depgraph.Analyze(s)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("plan for graph %q (%d tasks):\n", s.Name, len(plan.Tasks))
		for i, t := range plan.Tasks {
			fmt.Printf("%3d. %s\n", i+1, t.ID())
		}
		return
	}
	formatName := *format
	if *jsonl {
		// -jsonl is shorthand for -format jsonl; a conflicting explicit
		// -format is a mistake worth stopping, not silently overriding.
		if formatName != "" && formatName != "jsonl" {
			fatal(fmt.Errorf("-jsonl conflicts with -format %s", formatName))
		}
		formatName = "jsonl"
	}
	if formatName == "" {
		formatName = "csv"
	}
	exportFormat, err := table.ParseFormat(formatName)
	if err != nil {
		fatal(err)
	}
	eng := core.New(s)
	eng.Workers = *workers
	eng.ExportFormat = exportFormat
	eng.ExportWorkers = *exportWorkers
	if *verbose {
		eng.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "datasynth: "+format+"\n", args...)
		}
	}
	d, err := eng.Generate()
	if err != nil {
		fatal(err)
	}
	if err := eng.Export(d, *out); err != nil {
		fatal(err)
	}
	if *timings {
		fmt.Fprint(os.Stderr, eng.Report().String())
	}
	fmt.Printf("generated %s into %s (%s)\n", d.Stats(), *out, exportFormat)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datasynth:", err)
	os.Exit(1)
}
