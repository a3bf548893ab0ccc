package dsl

import (
	"fmt"
	"sort"
	"strings"

	"datasynth/internal/schema"
)

// Print renders a schema back to DSL text; Parse(Print(s)) is
// equivalent to s, which tests rely on (round-trip property).
func Print(s *schema.Schema) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", s.Name)
	if s.Seed != 0 {
		fmt.Fprintf(&b, "  seed = %d\n", s.Seed)
	}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		fmt.Fprintf(&b, "  node %s {\n", n.Name)
		if n.Count > 0 {
			fmt.Fprintf(&b, "    count = %d\n", n.Count)
		}
		for j := range n.Properties {
			printProperty(&b, &n.Properties[j], "    ")
		}
		b.WriteString("  }\n")
	}
	for i := range s.Edges {
		e := &s.Edges[i]
		fmt.Fprintf(&b, "  edge %s : %s %s %s {\n", e.Name, e.Tail, e.Cardinality, e.Head)
		if e.Count > 0 {
			fmt.Fprintf(&b, "    count = %d\n", e.Count)
		}
		fmt.Fprintf(&b, "    structure = %s\n", formatCall(&e.Structure))
		if c := e.Correlation; c != nil {
			passes := ""
			if c.Passes > 0 {
				passes = fmt.Sprintf(" passes %d", c.Passes)
			}
			if c.Property != "" {
				fmt.Fprintf(&b, "    correlate %s homophily %g%s\n", c.Property, c.Homophily, passes)
			} else {
				fused := ""
				if c.Fused {
					fused = " fused"
				}
				fmt.Fprintf(&b, "    correlate tail.%s with head.%s homophily %g%s%s\n", c.TailProperty, c.HeadProperty, c.Homophily, fused, passes)
			}
		}
		for j := range e.Properties {
			printProperty(&b, &e.Properties[j], "    ")
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

func printProperty(b *strings.Builder, p *schema.Property, indent string) {
	fmt.Fprintf(b, "%sproperty %s : %s = %s", indent, p.Name, p.Kind, formatCall(&p.Generator))
	if len(p.DependsOn) > 0 {
		fmt.Fprintf(b, " given (%s)", strings.Join(p.DependsOn, ", "))
	}
	b.WriteByte('\n')
}

func formatCall(g *schema.GeneratorSpec) string {
	if len(g.Params) == 0 {
		return g.Name + "()"
	}
	keys := make([]string, 0, len(g.Params))
	for k := range g.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + quote(g.Params[k])
	}
	return g.Name + "(" + strings.Join(parts, ", ") + ")"
}

// quote renders a parameter value as a string literal the lexer reads
// back byte for byte: the lexer takes `\X` as X and every other byte
// raw, so only `\` and `"` are escaped. A newline cannot be written at
// all; schema.Validate rejects it in a parameter value.
func quote(v string) string {
	var b strings.Builder
	b.Grow(len(v) + 2)
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == '\\' || c == '"' {
			b.WriteByte('\\')
		}
		b.WriteByte(v[i])
	}
	b.WriteByte('"')
	return b.String()
}
