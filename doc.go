// Package datasynth is a from-scratch Go reproduction of "Towards a
// property graph generator for benchmarking" (Prat-Pérez et al., 2017,
// arXiv:1704.00630): a framework for generating property graphs with
// configurable schemas, property value distributions, pluggable graph
// structure generators, and — the paper's core contribution —
// property-structure correlations preserved by the SBM-Part streaming
// matching algorithm.
//
// # Execution model
//
// The engine (internal/core) executes a schema as a task DAG. The
// dependency analysis (internal/depgraph) turns the schema into tasks
// of four kinds — generate node property, generate structure, match
// properties to structure, generate edge property — and exposes the
// per-task dependency edges (Plan.Deps), not just a topological order.
// A bounded worker pool dispatches every task the moment its
// dependencies are satisfied, so independent schema elements generate
// concurrently — the in-process analogue of the paper's shared-nothing
// cluster. Determinism is independent of the worker count: every task
// keys its RNG streams off (schema seed, task id), so a fixed seed
// yields a byte-identical dataset at Workers = 1 and Workers = NumCPU.
// Within a property task, rows additionally fan out to workers, since
// every value is a pure function of (id, r(id), deps).
//
// The hot inner loops are allocation-free at steady state: SBM-Part
// reuses per-partitioner scoring scratch, the LFR configuration model
// deduplicates edges by sort-and-compact over packed keys (plus a
// stamp table for the small intra-community universes) instead of a
// per-edge hash map, and CSR graph construction goes through a pooled
// reusable builder (internal/graph.Builder).
//
// # Intra-task parallelism and the determinism contract
//
// Beyond task-level scheduling, the largest tasks shard internally,
// under one invariant: the dataset is a pure function of the schema
// seed — byte-identical at every worker count, verified end to end by
// hashing exported CSV/JSONL files (internal/core
// TestExportedDatasetGoldenDeterminism).
//
//   - SBM-Part (internal/match) is one serial stream, as in the paper:
//     every placement reads the groups of the neighbours placed before
//     it. A windowed variant (parallel neighbourhood scans, serial
//     commit) measured slower than the serial stream on 2 cores and
//     was removed. The multi-pass matcher (restreamed-LDG refinement,
//     the schema's `passes` knob) opens each pass by rebuilding the
//     joint matrix of the previous assignment, sharded over node
//     ranges across Workers; the increments are integral, so every
//     shard split sums to the same bits. Per-pass wall times surface
//     in the -timings report as match-task notes.
//   - Sharded LFR wiring (internal/sgen): once community sizes and
//     memberships are fixed, each community's internal configuration
//     model is an independent shard. Shard c draws from its own RNG
//     stream keyed off (seed, "lfr.intra", c) via xrand's DeriveN,
//     emits into a disjoint arena range, and the ranges concatenate in
//     community order — so any number of workers, finishing in any
//     order, produce the same edge table.
//
// Every Generate also records per-task wall times and derives the
// plan's critical path (Engine.Report, datasynth -timings): the
// dependency chain that bounds wall time at infinite workers, i.e.
// where further intra-task sharding pays off. After Engine.Export the
// report covers the whole generate→match→export pipeline: per-file
// export stats, end-to-end wall, and a final export hop on the
// critical path.
//
// # Evaluation fan-out and the export pipeline
//
// The two outermost layers parallelise under the same determinism
// contract — per-seed, worker-invariant, format-stable:
//
//   - Parallel panels (internal/exp): figure panels and sweep points
//     are independent (each owns its seed), so exp.RunPanels runs them
//     on a bounded pool and streams results back in submission order,
//     byte-identical to the serial loop at every worker count
//     (cmd/sbmpart-eval -panelworkers). The timing experiment stays
//     pinned to one serial, single-thread panel at a time.
//   - Concurrent atomic export (internal/table): Dataset.Export writes
//     one file per table on a bounded pool in any of three formats —
//     CSV via a pooled append encoder byte-identical to encoding/csv,
//     JSON-lines via a pooled append encoder byte-identical to
//     encoding/json's default configuration (keys sorted, HTML
//     escaping, stdlib float formatting — fuzz-verified against the
//     stdlib encoders, so the byte stream is stable across releases
//     of this package), and a binary columnar format (.dsc: typed
//     column blocks with CRC-32C trailers, round-tripped by
//     OpenColumnar, the bulk-load path at ~4x CSV throughput). A
//     property whose short name collides with a structural JSONL key
//     ("id", "label", "tail", "head") or with another property is a
//     hard export error — it used to silently overwrite the field.
//     Files stage as temp files and rename into place only after
//     every table succeeded, so a failed export never leaves a
//     partial directory. The exported bytes are hash-verified
//     identical across scheduler workers and export workers
//     (internal/core TestExportedDatasetGoldenDeterminism and its
//     refined variant).
//
// # Serving generation: datasynthd
//
// The determinism contract is what makes generation servable as
// infrastructure. internal/service + cmd/datasynthd expose the engine
// over HTTP behind a bounded job queue and a content-addressable
// dataset cache keyed on (schema-semantics version, canonical schema,
// export format) — the canonical schema being dsl.Print's rendering,
// hashed by core.CanonicalHash, so surface spelling never splits the
// key and the embedded seed always does. Because a dataset is a pure
// function of that key, a cache hit is provably byte-identical to
// regeneration (pinned by TestServiceEndToEndByteIdentical against a
// fresh direct export), and concurrent identical submissions collapse
// onto one generation via singleflight — the job id is the cache key.
// Cache entries commit two-phase (staged export + manifest, then a
// directory rename) and carry per-file SHA-256s; a corrupted entry is
// evicted at lookup and regenerated, never served. Per-job resource
// limits (max nodes/edges, queue bound, generation timeout via
// Engine.GenerateCtx's task-granular cancellation) and graceful
// SIGTERM drain make it safe to park in front of real traffic; see
// docs/service.md.
//
// The library lives under internal/ (see README.md for the map);
// cmd/datasynth generates datasets from DSL schemas (-format
// csv|jsonl|columnar, -exportworkers; -validate prints the canonical
// schema hash without generating), cmd/datasynthd serves generation
// over HTTP, cmd/sbmpart-eval regenerates
// the paper's evaluation and cmd/graphstats validates exported
// datasets in either connector format. The benchmarks in bench_test.go
// cover every table and figure of the paper, and export_bench_test.go
// tracks connector throughput; run them with
//
//	go test -bench=. -benchmem .
//
// or ./bench.sh to record a machine-readable snapshot.
package datasynth
