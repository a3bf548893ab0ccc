package dsl

import (
	"errors"
	"strings"
	"testing"

	"datasynth/internal/schema"
)

const overrideDSL = `
graph ov {
  seed = 42
  node Person {
    count = 100
    property country : string = categorical(dict="countries")
  }
  node Message {
    property topic : string = categorical(dict="topics")
  }
  edge knows : Person *-* Person {
    structure = lfr(avgDegree=4, maxDegree=10, mu=0.2)
  }
  edge creates : Person 1-* Message {
    structure = powerlaw-out(min=1, max=4, gamma=2.0)
  }
}
`

func overrideSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := Parse(overrideDSL)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOverrideWhitelist(t *testing.T) {
	s := overrideSchema(t)
	err := Override(s, map[string]string{
		"seed":         "7",
		"Person.count": "250",
		"knows.count":  "500",
		"knows.mu":     "0.35",
		"creates.max":  "6",
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 {
		t.Fatalf("seed: %d", s.Seed)
	}
	if got := s.NodeType("Person").Count; got != 250 {
		t.Fatalf("Person.count: %d", got)
	}
	if got := s.EdgeType("knows").Count; got != 500 {
		t.Fatalf("knows.count: %d", got)
	}
	if got := s.EdgeType("knows").Structure.Params["mu"]; got != "0.35" {
		t.Fatalf("knows.mu: %q", got)
	}
	if got := s.EdgeType("creates").Structure.Params["max"]; got != "6" {
		t.Fatalf("creates.max: %q", got)
	}
	// The overridden schema survives the normal round trip, so the
	// resolved text canonicalises like any anonymous submission.
	if _, err := Parse(Print(s)); err != nil {
		t.Fatalf("overridden schema does not round-trip: %v", err)
	}
}

func TestOverrideRejections(t *testing.T) {
	for name, tc := range map[string]struct {
		params map[string]string
		want   string
	}{
		"bad seed":           {map[string]string{"seed": "-1"}, "unsigned"},
		"bare key":           {map[string]string{"mu": "0.3"}, "want"},
		"zero count":         {map[string]string{"Person.count": "0"}, "positive"},
		"negative count":     {map[string]string{"knows.count": "-5"}, "positive"},
		"unknown type":       {map[string]string{"Ghost.count": "5"}, "no node or edge type"},
		"node non-count":     {map[string]string{"Person.country": "x"}, `only "count"`},
		"unknown edge":       {map[string]string{"ghost.mu": "0.3"}, "no edge type"},
		"unknown param":      {map[string]string{"knows.gamma": "2.0"}, "has no parameter"},
		"typo lists options": {map[string]string{"knows.Mu": "0.3"}, "avgDegree, maxDegree, mu"},
	} {
		t.Run(name, func(t *testing.T) {
			s := overrideSchema(t)
			err := Override(s, tc.params)
			var oe *OverrideError
			if !errors.As(err, &oe) {
				t.Fatalf("got %v, want *OverrideError", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestOverrideNewlineRejectedByValidate: a string literal cannot hold a
// newline, so an override that puts one in a parameter would make the
// canonical text unparseable. Override itself takes any value; schema
// validation, which every override path runs next, must refuse it.
func TestOverrideNewlineRejectedByValidate(t *testing.T) {
	s := overrideSchema(t)
	if err := Override(s, map[string]string{"knows.mu": "0.3\n"}); err != nil {
		t.Fatal(err)
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("a newline in a structure parameter passed validation")
	}
	if !strings.Contains(err.Error(), "newline") {
		t.Fatalf("error %q does not mention the newline", err)
	}
}
