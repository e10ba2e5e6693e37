package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"prompt/bench/harness"
)

// runTraced builds bench/layers and runs it for one workload. The
// probes import internal packages, so a refactor can break this build;
// the end-to-end run never depends on it.
func runTraced(w harness.Workload, o options, env harness.Env, promptdBuild time.Duration) (int, error) {
	layers, _, err := buildBinary(o.work, "layers", ".", "./layers")
	if err != nil {
		return 1, fmt.Errorf("per-layer metrics are missing, the probe binary does not build: %w", err)
	}
	cmd := exec.Command(layers,
		"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-promptd", env.Promptd, "-tmp", env.TmpRoot, "-out", "out",
		"-build-s", strconv.FormatFloat(promptdBuild.Seconds(), 'f', -1, 64))
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), nil // layers already said why
		}
		return 1, err
	}
	return 0, nil
}

// summary is one metric of one workload across a set of runs.
type summary struct {
	Median float64   `json:"median"`
	Unit   string    `json:"unit"`
	N      int       `json:"n"` // runs behind the median, or rounds pooled for a per-round metric
	Values []float64 `json:"values,omitempty"`
}

// workloadSet is everything a suite run learned about one workload.
type workloadSet struct {
	Attempted     int                `json:"ops_attempted"`
	Failed        int                `json:"ops_failed"`
	EndToEnd      map[string]summary `json:"end_to_end"`
	PerLayer      map[string]summary `json:"per_layer,omitempty"`
	PerLayerError string             `json:"per_layer_error,omitempty"`
}

// resultSet is the file -out writes and -compare reads.
type resultSet struct {
	Seed      int64                   `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Reps      int                     `json:"reps"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

// child runs this binary for one workload in a process of its own, so
// that peak RSS and heap state are per workload, and returns the result
// line it printed.
func child(args ...string) (harness.Result, error) {
	self, err := os.Executable()
	if err != nil {
		return harness.Result{}, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res harness.Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%v: %w", args, runErr)
		}
		return res, fmt.Errorf("%v printed no result line: %w", args, err)
	}
	return res, nil // a run that failed its answer check still reports
}

// runSuite runs every workload reps times, repetitions interleaved so
// that slow drift of the machine hits all workloads alike, then (with
// trace) the traced run of each, and prints medians.
func runSuite(o options) (int, error) {
	seed, seconds, reps, work := o.seed, o.seconds, o.reps, o.work
	if reps < 1 {
		return 2, fmt.Errorf("-reps must be at least 1")
	}
	set := resultSet{Seed: seed, Seconds: seconds, Reps: reps, Workloads: map[string]*workloadSet{}}
	samples := map[string]map[string][]float64{} // workload → metric → per-run values
	rounds := map[string]harness.Samples{}       // workload → metric → per-round values, pooled over runs
	tmp := filepath.Join(work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 1, err
	}
	for rep := 0; rep < reps; rep++ {
		for _, w := range harness.Workloads() {
			ws := set.Workloads[w.Name]
			if ws == nil {
				ws = &workloadSet{}
				set.Workloads[w.Name] = ws
				samples[w.Name] = map[string][]float64{}
				rounds[w.Name] = harness.Samples{}
			}
			roundFile := filepath.Join(tmp, fmt.Sprintf("rounds-%d.json", os.Getpid()))
			res, err := child("-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(rep), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0", "-work", work, "-samples", roundFile)
			if err != nil {
				return 1, err
			}
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			for name, v := range res.Metrics {
				samples[w.Name][name] = append(samples[w.Name][name], v.Value)
			}
			var per harness.Samples
			if b, err := os.ReadFile(roundFile); err == nil && json.Unmarshal(b, &per) == nil {
				for name, xs := range per {
					rounds[w.Name][name] = append(rounds[w.Name][name], xs...)
				}
			}
			_ = os.Remove(roundFile)
		}
	}
	for _, w := range harness.Workloads() {
		ws := set.Workloads[w.Name]
		ws.EndToEnd = map[string]summary{}
		for _, m := range harness.EndToEnd {
			vals := samples[w.Name][m.Name]
			s := summary{Median: harness.Median(vals), Unit: m.Unit, N: len(vals), Values: vals}
			// The per-round metrics take their quiet quartile over the
			// pooled rounds of all repetitions, which resolves it better
			// than the median of each run's own quartile.
			if pooled := rounds[w.Name][m.Name]; len(pooled) > 0 {
				s.Median, s.N = harness.Quiet(pooled, m.Better), len(pooled)
			}
			ws.EndToEnd[m.Name] = s
		}
		if o.trace != 0 {
			res, err := child("-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "1", "-work", work)
			if err != nil {
				ws.PerLayerError = err.Error()
				continue
			}
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			ws.PerLayer = map[string]summary{}
			for _, m := range harness.PerLayer {
				ws.PerLayer[m.Name] = summary{Median: res.Metrics[m.Name].Value, Unit: m.Unit, N: 1}
			}
		}
	}
	printSet(set)
	code := 0
	for _, ws := range set.Workloads {
		if ws.Failed > 0 {
			code = 1
		}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
			return 1, err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	return code, nil
}

func printSet(set resultSet) {
	fmt.Printf("benchmark: seed %d, %d s per run, %d repetition(s) per workload\n", set.Seed, set.Seconds, set.Reps)
	for _, w := range harness.Workloads() {
		ws := set.Workloads[w.Name]
		fmt.Printf("\n%s: ops_attempted=%d ops_failed=%d\n", w.Name, ws.Attempted, ws.Failed)
		for _, m := range harness.EndToEnd {
			s := ws.EndToEnd[m.Name]
			fmt.Printf("  %-36s %14.4f %-9s n=%-5d (%s is better, bound %.0f%%)\n", m.Name, s.Median, m.Unit, s.N, m.Better, m.Bound*100)
		}
		if ws.PerLayerError != "" {
			fmt.Printf("  per-layer metrics missing: %s\n", ws.PerLayerError)
		}
		for _, m := range harness.PerLayer {
			if s, ok := ws.PerLayer[m.Name]; ok {
				fmt.Printf("  %-36s %14.4f %s\n", m.Name, s.Median, m.Unit)
			}
		}
	}
}

// compareFiles prints, per workload and metric, the two medians, their
// relative difference and the bound, and reports a regression when an
// end-to-end metric of b is worse than a's by more than its bound or
// the share of failed operations rose.
func compareFiles(pathA, pathB string) (int, error) {
	var a, b resultSet
	for _, f := range []struct {
		path string
		into *resultSet
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return 2, err
		}
		if err := json.Unmarshal(raw, f.into); err != nil {
			return 2, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	regressed := false
	for _, w := range harness.Workloads() {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Printf("\n%s: missing from one of the sets\n", w.Name)
			regressed = true
			continue
		}
		fa, fb := failShare(wa), failShare(wb)
		fmt.Printf("\n%s: ops_failed/ops_attempted %d/%d -> %d/%d\n", w.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if fb > fa {
			fmt.Printf("  REGRESSION: the share of failed operations rose from %.4f to %.4f\n", fa, fb)
			regressed = true
		}
		for _, m := range harness.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			diff := relDiff(sa.Median, sb.Median)
			worse := diff
			if m.Better == "higher" {
				worse = -diff
			}
			verdict := "within bound"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			case -worse > m.Bound:
				verdict = "better by more than the bound"
			}
			fmt.Printf("  %-36s %14.4f -> %14.4f %-9s %+7.1f%%  bound %2.0f%%  %s\n", m.Name, sa.Median, sb.Median, m.Unit, diff*100, m.Bound*100, verdict)
		}
		for _, m := range harness.PerLayer {
			sa, okA := wa.PerLayer[m.Name]
			sb, okB := wb.PerLayer[m.Name]
			if okA && okB {
				fmt.Printf("  %-36s %14.4f -> %14.4f %-9s %+7.1f%%\n", m.Name, sa.Median, sb.Median, m.Unit, relDiff(sa.Median, sb.Median)*100)
			}
		}
	}
	if regressed {
		return 1, nil
	}
	return 0, nil
}

func failShare(w *workloadSet) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}
