package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"datasynth/internal/depgraph"
	"datasynth/internal/dsl"
	"datasynth/internal/schema"
)

// Canonical schema identity. The generation service caches exported
// datasets content-addressably, which is sound only because the engine
// guarantees a dataset is a pure function of (schema, seed) at any
// worker count or scheduling order. The cache key
// therefore needs exactly two ingredients beyond the export format:
//
//   - A canonical rendering of the schema. dsl.Print is the canonical
//     printer: it sorts generator parameters, normalises spelling, and
//     round-trips through Parse, so two schema texts that differ only
//     in whitespace, parameter order, or comments hash identically —
//     and two schemas that generate differently never collide (the
//     seed is part of the printed text).
//   - SchemaVersion, bumped whenever the generation semantics change
//     (new RNG derivation scheme, changed generator behaviour, new
//     export encoding). Without it a cache populated by an older build
//     could serve bytes a newer build would not reproduce.

// SchemaVersion identifies the generation semantics of this build.
// Any change that alters the bytes generated for a fixed (schema,
// seed) — RNG stream derivation, generator algorithms, export
// encodings — must bump it, invalidating every cached dataset.
//
// History: v1 was the PR-1 scheme; v2 re-keyed LFR intra-community
// wiring onto per-community RNG streams (PR 2); v3 re-keyed RMAT onto
// sharded per-(round,shard) streams with radix dedup (PR 6); v4 made
// Barabási–Albert emit each node's targets in sorted order instead of
// map iteration order, changing BA edge bytes (PR 9).
const SchemaVersion = 4

// ValidateSchema runs the full static checking pipeline a schema must
// pass before generation: referential validation (schema.Validate) and
// the dependency analysis (cycle detection, count-source resolution).
// It is what `datasynth -validate` and the generation service run at
// admission — a schema that passes here can only fail at generation
// time for resource reasons, not structural ones.
func ValidateSchema(s *schema.Schema) error {
	if _, err := depgraph.Analyze(s); err != nil {
		return err
	}
	return nil
}

// CanonicalSchema returns the canonical DSL rendering of the schema —
// the exact byte string hashed by CanonicalHash. Parse(CanonicalSchema(s))
// is equivalent to s.
func CanonicalSchema(s *schema.Schema) string {
	return dsl.Print(s)
}

// CanonicalHash returns the hex SHA-256 of the schema's canonical
// identity: the SchemaVersion header followed by the canonical DSL
// text (which embeds the seed). Schemas with equal hashes generate
// byte-identical datasets under the engine's determinism contract;
// schemas differing in any generation-relevant way hash differently.
func CanonicalHash(s *schema.Schema) string {
	h := sha256.New()
	fmt.Fprintf(h, "datasynth-schema-v%d\n", SchemaVersion)
	h.Write([]byte(CanonicalSchema(s)))
	return hex.EncodeToString(h.Sum(nil))
}
