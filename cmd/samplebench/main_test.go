package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func smallParams() params {
	return params{
		Seconds: 4, Rate: 1500, Keys: 120, WindowSec: 2, Seed: 7,
		Generators: []string{"zipf0.8", "hotset", "burst"},
	}
}

// TestRunDeterministic pins the acceptance contract: the leaderboard —
// every error, footprint, and rank — is identical across runs of the
// same seed once the measured ns/op is masked out.
func TestRunDeterministic(t *testing.T) {
	a, err := run(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		a.Rows[i].NsPerOp, b.Rows[i].NsPerOp = 0, 0
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced two different leaderboards:\n%+v\n%+v", a, b)
	}
}

// TestRunCoversSweep checks the leaderboard shape: every selected
// generator ranks every operator exactly once, ranks are a permutation of
// 1..n, and the overall standing covers every operator.
func TestRunCoversSweep(t *testing.T) {
	p := smallParams()
	res, err := run(p)
	if err != nil {
		t.Fatal(err)
	}
	perGen := make(map[string]map[int]string)
	for _, r := range res.Rows {
		if perGen[r.Generator] == nil {
			perGen[r.Generator] = make(map[int]string)
		}
		if prev, dup := perGen[r.Generator][r.Rank]; dup {
			t.Errorf("%s: rank %d assigned to both %s and %s", r.Generator, r.Rank, prev, r.Operator)
		}
		perGen[r.Generator][r.Rank] = r.Operator
		if r.Error < 0 || r.Error > 1.5 {
			t.Errorf("%s/%s: implausible error %v", r.Generator, r.Operator, r.Error)
		}
		if r.Bytes <= 0 {
			t.Errorf("%s/%s: footprint %d", r.Generator, r.Operator, r.Bytes)
		}
	}
	if len(perGen) != len(p.Generators) {
		t.Fatalf("rows cover %d generators, want %d", len(perGen), len(p.Generators))
	}
	ops := len(res.Rows) / len(p.Generators)
	if ops < 5 {
		t.Fatalf("leaderboard ranks %d operators, want >= 5", ops)
	}
	for gen, ranks := range perGen {
		for r := 1; r <= ops; r++ {
			if _, ok := ranks[r]; !ok {
				t.Errorf("%s: rank %d missing", gen, r)
			}
		}
	}
	if len(res.Overall) != ops {
		t.Errorf("overall standing has %d operators, want %d", len(res.Overall), ops)
	}
}

// TestSmokeMatchesBaseline is the accuracy gate: smallParams is the
// committed smoke configuration, and each operator's error (in parts per
// million) and summary footprint may exceed the recorded baseline by at
// most 5 %. Both are deterministic for the seed, so any excess is a real
// regression; a baseline of zero error must stay exact.
func TestSmokeMatchesBaseline(t *testing.T) {
	baseline := map[string]struct{ ppm, bytes float64 }{
		"zipf0.8/countmin":    {0, 196752},
		"zipf0.8/hll":         {2224, 12384},
		"zipf0.8/priority":    {100000, 4296},
		"zipf0.8/spacesaving": {200000, 5082},
		"zipf0.8/reservoir":   {500000, 4316},
		"zipf0.8/chain":       {900000, 4331},
		"hotset/countmin":     {0, 196752},
		"hotset/hll":          {3306, 12384},
		"hotset/priority":     {500000, 4331},
		"hotset/chain":        {800000, 4336},
		"hotset/spacesaving":  {800000, 5095},
		"hotset/reservoir":    {900000, 4326},
		"burst/priority":      {0, 4294},
		"burst/countmin":      {0, 196752},
		"burst/hll":           {2491, 12384},
		"burst/spacesaving":   {100000, 5064},
		"burst/reservoir":     {400000, 4315},
		"burst/chain":         {800000, 4331},
	}
	const tolerance = 1.05
	res, err := run(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(baseline) {
		t.Fatalf("smoke run has %d rows, baseline %d", len(res.Rows), len(baseline))
	}
	for _, r := range res.Rows {
		name := r.Generator + "/" + r.Operator
		base, ok := baseline[name]
		if !ok {
			t.Errorf("%s: no baseline", name)
			continue
		}
		if ppm := math.Round(r.Error * 1e6); ppm > base.ppm*tolerance {
			t.Errorf("%s: error %.0f ppm, baseline %.0f", name, ppm, base.ppm)
		}
		if float64(r.Bytes) > base.bytes*tolerance {
			t.Errorf("%s: footprint %d B, baseline %.0f", name, r.Bytes, base.bytes)
		}
	}
}

// TestRendering smoke-tests both output forms.
func TestRendering(t *testing.T) {
	p := smallParams()
	p.Generators = []string{"zipf2.0"}
	p.Seconds = 2
	res, err := run(p)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := writeCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != len(res.Rows)+1 {
		t.Errorf("csv has %d lines, want %d", lines, len(res.Rows)+1)
	}
	var doc bytes.Buffer
	if err := json.NewEncoder(&doc).Encode(res); err != nil {
		t.Fatal(err)
	}
	var back Output
	if err := json.Unmarshal(doc.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, res) {
		t.Errorf("json round trip changed the leaderboard:\n%+v\n%+v", back, *res)
	}
}

// TestUnknownGenerator pins the error path.
func TestUnknownGenerator(t *testing.T) {
	p := smallParams()
	p.Generators = []string{"nope"}
	if _, err := run(p); err == nil || !strings.Contains(err.Error(), "unknown generator") {
		t.Fatalf("run with unknown generator: %v", err)
	}
}
