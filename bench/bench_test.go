package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"prompt/bench/harness"
)

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestManifestMatchesTheCode keeps BENCHMARK.json and the metric and
// workload tables the binaries print from in step: every name in the
// manifest is printed exactly once per run, with the manifest's unit.
func TestManifestMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	ws := harness.Workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the manifest, %d in the code", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest has %q (%q), code has %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []harness.Metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the code", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (bounded && g.Bound != w.Bound) {
				t.Errorf("%s metric %d: manifest %+v, code %+v", kind, i, g, w)
			}
			if !name.MatchString(w.Name) || !unit.MatchString(w.Unit) {
				t.Errorf("%s metric %q (unit %q) breaks the naming rules", kind, w.Name, w.Unit)
			}
			if seen[w.Name] {
				t.Errorf("metric name %q is used twice", w.Name)
			}
			seen[w.Name] = true
			if bounded && (w.Bound <= 0 || w.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", w.Name, w.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, harness.EndToEnd, true)
	check("per_layer", m.PerLayer, harness.PerLayer, false)
}
