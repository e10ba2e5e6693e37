package main

import (
	"testing"

	"prompt/bench/harness"
)

// TestToyTracedRun drives the traced run and every probe at toy size
// (the sharded workload over loopback shards, so without the tap): each
// workload must pass its answer check and report every per-layer metric
// once, with the stage spans adding up to the batch span.
func TestToyTracedRun(t *testing.T) {
	for _, w := range harness.Workloads() {
		res, err := traced(w.Toy(), 1, 2, harness.Env{TmpRoot: t.TempDir()}, t.TempDir(), 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", w.Name, res.Correct, res.Failed)
		}
		if len(res.Metrics) != len(harness.PerLayer) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(res.Metrics), len(harness.PerLayer))
		}
		for _, m := range harness.PerLayer {
			if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		v := func(name string) float64 { return res.Metrics[name].Value }
		parts := v("engine.accumulate_ms_p50") + v("engine.partition_ms_p50") + v("engine.process_ms_p50") +
			v("engine.commit_ms_p50") + v("engine.batch_self_ms_p50")
		if batch := v("engine.batch_ms_p50"); batch <= 0 || parts < 0.5*batch || parts > 1.5*batch {
			t.Errorf("%s: stage medians sum to %.3f ms, batch median is %.3f ms", w.Name, parts, batch)
		}
		for _, name := range []string{"stats.keys_per_batch", "window.live_keys", "intern.intern_ns_per_tuple", "ring.push_drain_ns_per_tuple"} {
			if v(name) <= 0 {
				t.Errorf("%s: probe metric %s = %v, want > 0", w.Name, name, v(name))
			}
		}
		if churn := v("checkpoint.bytes") > 0; churn != w.Churn {
			t.Errorf("%s: checkpoint.bytes = %v, want non-zero only with state actions", w.Name, v("checkpoint.bytes"))
		}
	}
}
