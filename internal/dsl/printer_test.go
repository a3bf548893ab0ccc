package dsl

import (
	"strings"
	"testing"
)

// rawTabDSL holds a raw tab inside a parameter string: the lexer keeps
// every byte of a string literal except `\` escapes verbatim.
const rawTabDSL = "graph g {\n  node Person {\n    count = 10\n    property sex : string = categorical(values=\"M\tF\")\n  }\n}\n"

// TestPrintKeepsRawTab: a value holding a tab must survive
// print → parse unchanged. Go's %q would print it as `\t`, which the
// lexer reads back as a plain "t".
func TestPrintKeepsRawTab(t *testing.T) {
	s, err := Parse(rawTabDSL)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(s)
	s2, err := Parse(printed)
	if err != nil {
		t.Fatalf("canonical text does not parse: %v\n%s", err, printed)
	}
	if got := s2.NodeType("Person").Property("sex").Generator.Params["values"]; got != "M\tF" {
		t.Fatalf("values = %q after a round trip, want %q", got, "M\tF")
	}
	if again := Print(s2); again != printed {
		t.Fatalf("reprint differs:\n%q\nvs\n%q", printed, again)
	}
}

// TestPrintEscapesOnlyQuoteAndBackslash: `"` and `\` are the only bytes
// a string literal needs escaped; everything else, invalid UTF-8
// included, is written raw and read back byte for byte.
func TestPrintEscapesOnlyQuoteAndBackslash(t *testing.T) {
	s, err := Parse(rawTabDSL)
	if err != nil {
		t.Fatal(err)
	}
	const value = "a\"b\\c\x00\x7f\xff \r"
	s.NodeType("Person").Property("sex").Generator.Params["values"] = value
	printed := Print(s)
	if !strings.Contains(printed, `values="a\"b\\c`+"\x00\x7f\xff \r"+`"`) {
		t.Fatalf("unexpected literal in:\n%q", printed)
	}
	s2, err := Parse(printed)
	if err != nil {
		t.Fatalf("canonical text does not parse: %v\n%q", err, printed)
	}
	if got := s2.NodeType("Person").Property("sex").Generator.Params["values"]; got != value {
		t.Fatalf("values = %q after a round trip, want %q", got, value)
	}
}

// FuzzCanonicalRoundTrip: the canonical printer is a fixpoint — any
// text that parses prints to canonical text that parses again and
// reprints to the same bytes. The cache key is a hash of that text,
// so a second spelling of one schema would split the cache and a
// lossy one would generate a different dataset under a stored name.
func FuzzCanonicalRoundTrip(f *testing.F) {
	for _, src := range []string{paperDSL, overrideDSL, bipartiteDSL, edgeCountDSL, commentsDSL, passesDSL, rawTabDSL} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		first := Print(s)
		s2, err := Parse(first)
		if err != nil {
			t.Fatalf("canonical text does not parse: %v\n%q", err, first)
		}
		if second := Print(s2); second != first {
			t.Fatalf("reprint differs:\n%q\nvs\n%q", first, second)
		}
	})
}
