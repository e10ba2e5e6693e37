package experiment

import (
	"bytes"
	"os"
	"testing"
)

func TestMain(m *testing.M) { os.Exit(m.Run()) }

func TestTable1(t *testing.T) {
	res, err := Table1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(res.Rows))
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFig10Shape(t *testing.T) {
	for _, ds := range []string{"tweets", "tpch"} {
		res, err := Fig10(Quick(), ds)
		if err != nil {
			t.Fatal(err)
		}
		rows := map[string]Fig10Row{}
		for _, r := range res.Rows {
			rows[r.Technique] = r
		}
		// Hash is the BSI reference (1.0); shuffle the BCI reference.
		if r := rows["hash"]; r.RelativeBSI != 1 {
			t.Errorf("%s: hash relative BSI = %v", ds, r.RelativeBSI)
		}
		if r := rows["shuffle"]; r.RelativeBCI != 1 {
			t.Errorf("%s: shuffle relative BCI = %v", ds, r.RelativeBCI)
		}
		// Paper shape: shuffle, time and prompt balance sizes well.
		for _, name := range []string{"shuffle", "prompt"} {
			if r := rows[name]; r.RelativeBSI > 0.2 {
				t.Errorf("%s: %s relative BSI = %v, want near 0", ds, name, r.RelativeBSI)
			}
		}
		// Hash and prompt balance cardinality better than the shuffle
		// reference (prompt decisively so).
		if r := rows["hash"]; r.RelativeBCI >= 1 {
			t.Errorf("%s: hash relative BCI = %v, want below shuffle", ds, r.RelativeBCI)
		}
		if r := rows["prompt"]; r.RelativeBCI > 0.5 {
			t.Errorf("%s: prompt relative BCI = %v, want well below shuffle", ds, r.RelativeBCI)
		}
		// Prompt has the best combined MPI.
		for _, r := range res.Rows {
			if r.Technique != "prompt" && rows["prompt"].MPI > r.MPI+1e-9 {
				t.Errorf("%s: prompt MPI %v worse than %s %v", ds, rows["prompt"].MPI, r.Technique, r.MPI)
			}
		}
	}
}

func TestFig11Shape(t *testing.T) {
	p := Quick()
	// Headroom above the saturation point so prompt's max is not clipped
	// by the search ceiling.
	p.SearchHi = 500_000
	// A bisection to 10% cannot resolve the 20% margin asserted below:
	// both maxima land on coarse grid points (prompt 221 562, time
	// 190 625, ratio 1.16), and whether time holds 190 625 then turns on
	// its wall-clock partition time against the early-release slack.
	// At 1% the cost-model maxima show through (prompt 231 230, time at
	// most 190 625 whatever the machine's speed).
	p.SearchTol = 0.01
	res, err := Fig11(p, "tweets", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	thr := map[string]float64{}
	for _, r := range res.Rows {
		thr[r.Technique] = r.Throughput[1]
	}
	// The headline: Prompt sustains the highest rate; time-based is worst
	// or near-worst under rate variation.
	for _, name := range Fig11Techniques {
		if name == "prompt" {
			continue
		}
		if thr["prompt"] < thr[name] {
			t.Errorf("prompt (%v) below %s (%v)", thr["prompt"], name, thr[name])
		}
	}
	if thr["prompt"] < 1.2*thr["time"] {
		t.Errorf("prompt (%v) not clearly above time-based (%v)", thr["prompt"], thr["time"])
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFig11SkewShape(t *testing.T) {
	p := Quick()
	res, err := Fig11Skew(p, []float64{0.5, 1.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	thr := map[string]map[string]float64{}
	for _, r := range res.Rows {
		thr[r.Technique] = r.Throughput
	}
	// Under heavy skew prompt beats hash clearly.
	if thr["prompt"]["1.5"] < thr["hash"]["1.5"] {
		t.Errorf("prompt (%v) below hash (%v) at z=1.5", thr["prompt"]["1.5"], thr["hash"]["1.5"])
	}
	// Prompt stays robust as skew rises: z=1.5 within 40%% of z=0.5.
	if thr["prompt"]["1.5"] < 0.6*thr["prompt"]["0.5"] {
		t.Errorf("prompt throughput collapsed under skew: %v -> %v",
			thr["prompt"]["0.5"], thr["prompt"]["1.5"])
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := Fig12(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no trace points")
	}
	first, peak, last := res.Points[0], res.Points[0], res.Points[len(res.Points)-1]
	sawOut, sawIn := false, false
	for _, pt := range res.Points {
		if pt.MapTasks+pt.ReduceTasks > peak.MapTasks+peak.ReduceTasks {
			peak = pt
		}
		if pt.Direction > 0 {
			sawOut = true
		}
		if pt.Direction < 0 {
			sawIn = true
		}
	}
	if !sawOut {
		t.Error("no scale-out in the rising phase")
	}
	if !sawIn {
		t.Error("no scale-in in the falling phase")
	}
	if peak.MapTasks+peak.ReduceTasks <= first.MapTasks+first.ReduceTasks {
		t.Error("task count never grew")
	}
	if last.MapTasks+last.ReduceTasks >= peak.MapTasks+peak.ReduceTasks {
		t.Error("task count never shrank after the peak")
	}

	// Figure 12c: tasks are released while throughput still matches the
	// input. Fig12 runs Algorithm 4 with D = 2.
	const d = 2
	for i, pt := range res.Points {
		if pt.Direction == 0 {
			continue
		}
		for j := i + 1; j < len(res.Points) && j <= i+2*d; j++ {
			next := res.Points[j]
			if pt.Direction < 0 && j <= i+d && next.W > 1 {
				t.Errorf("batch %d: W %.2f within %d batches of the scale-in at batch %d", next.Batch, next.W, d, pt.Batch)
			}
			if next.Direction == -pt.Direction {
				t.Errorf("batch %d reverses batch %d's decision within 2·D batches", next.Batch, pt.Batch)
			}
		}
	}
	// Per batch the offered rate is the ramp's mean and the arrivals are
	// Poisson around it (about 1 % apart at these rates, whatever W is), so
	// the falling phase is compared in total.
	var offered, processed float64
	for _, pt := range res.Points[len(res.Points)/2:] {
		offered += pt.OfferedRate
		processed += pt.Throughput
	}
	if processed < 0.99*offered {
		t.Errorf("falling phase processed %.0f tuples of %.0f offered (%.1f %% short)",
			processed, offered, 100*(1-processed/offered))
	}
	policies := map[string]bool{}
	for _, sc := range res.Policies {
		policies[sc.Policy] = true
	}
	if !policies["threshold"] || !policies["cost"] || len(res.Policies) != 2 {
		t.Errorf("policy rows %+v, want threshold and cost", res.Policies)
	}

	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFig13Shape(t *testing.T) {
	res, err := Fig13(Quick(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("%d series", len(res.Series))
	}
	var timeS, promptS Fig13Series
	for _, s := range res.Series {
		switch s.Technique {
		case "time":
			timeS = s
		case "prompt":
			promptS = s
		}
	}
	// Prompt's within-batch spread of Reduce task times is smaller.
	if promptS.SpreadMs >= timeS.SpreadMs {
		t.Errorf("prompt spread %v not below time-based %v", promptS.SpreadMs, timeS.SpreadMs)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFig14aShape(t *testing.T) {
	res, err := Fig14a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Frequency-aware buffering must not lose to post-sort.
	if res.FrequencyAware < 0.9*res.PostSort {
		t.Errorf("frequency-aware %v clearly below post-sort %v", res.FrequencyAware, res.PostSort)
	}
}

func TestFig14bOverheadBounded(t *testing.T) {
	res, err := Fig14b(Quick(), []int{10_000, 50_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// The paper bounds the overhead at 5% of the interval; allow CI
		// jitter headroom while still catching regressions.
		if row.PercentOfInterval > 10 {
			t.Errorf("overhead %v%% of interval for %d tuples", row.PercentOfInterval, row.BatchTuples)
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	res, err := Fig6Paper()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Fig6Row{}
	for _, r := range res.Rows {
		rows[r.Technique] = r
	}
	// FFD fragments the most; FragMin the least among baselines; Prompt
	// balances cardinality better than FragMin while staying close on
	// fragmentation.
	if rows["ffd"].SplitKeys < rows["fragmin"].SplitKeys {
		t.Errorf("ffd split %d < fragmin %d", rows["ffd"].SplitKeys, rows["fragmin"].SplitKeys)
	}
	if rows["prompt"].KSR > rows["ffd"].KSR {
		t.Errorf("prompt KSR %v above ffd %v", rows["prompt"].KSR, rows["ffd"].KSR)
	}
	if rows["prompt"].BCI > rows["fragmin"].BCI {
		t.Errorf("prompt BCI %v above fragmin %v", rows["prompt"].BCI, rows["fragmin"].BCI)
	}

	if _, err := Fig6Random(Quick()); err != nil {
		t.Fatal(err)
	}
}
