package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, table := range [][][2]string{endToEnd, perLayer} {
		for _, m := range table {
			if !nameRE.MatchString(m[0]) || !unitRE.MatchString(m[1]) {
				t.Errorf("metric %q unit %q breaks the naming rule", m[0], m[1])
			}
			if seen[m[0]] {
				t.Errorf("metric %q listed twice", m[0])
			}
			seen[m[0]] = true
		}
	}
}

func TestMetricsAgreeWithBenchmarkJSON(t *testing.T) {
	f := readBenchFile(t)
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i][0] || m.Unit != endToEnd[i][1] {
			t.Errorf("end_to_end[%d] = %s %s, harness has %s %s", i, m.Name, m.Unit, endToEnd[i][0], endToEnd[i][1])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i][0] || m.Unit != perLayer[i][1] {
			t.Errorf("per_layer[%d] = %s %s, harness has %s %s", i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
}
