package harness

import (
	"fmt"
	"math"
	"sort"
	"time"

	"prompt"
)

// Check verifies the stream's answers against references the benchmark
// computes itself, outside every timed phase:
//
//   - the final Window() must equal, exactly, the per-key counts or
//     integer payload sums of the last WindowBatches batches submitted;
//   - a sharded workload must be fed the very input of zipf-hot (the
//     reference is recomputed from a cycle generated under zipf-hot's
//     definition) and must end with every shard up;
//   - state-churn restores its last checkpoint, replays the batches
//     submitted since, and must reach the same window; and its
//     count-min estimate of each exact top-100 key must lie within the
//     advertised error bound.
//
// On a mismatch the error names the first differing key in key order
// with both values.
func (r *Runner) Check() error {
	refCycle := r.Cycle
	if r.W.Shards > 0 {
		hot, _ := WorkloadByName("zipf-hot")
		hot.Tuples, hot.Keys, hot.CycleLen = r.W.Tuples, r.W.Keys, r.W.CycleLen // equal already, unless toy-sized
		refCycle = Generate(hot, r.Seed)
	}
	ref := refCycle.Reference(r.W, r.recent)
	win := r.St.Window()
	if err := diffWindows("final window", win, ref); err != nil {
		return err
	}
	if down := r.St.ShardsDown(); down > 0 {
		return fmt.Errorf("%d shard(s) down at the end of the run", down)
	}
	if !r.W.Churn {
		return nil
	}

	if r.lastImage == nil {
		return fmt.Errorf("no checkpoint was taken during the run")
	}
	t0 := time.Now()
	restored, err := prompt.Restore(r.W.restoreConfig(), r.W.Query(), r.lastImage)
	r.RestoreTime = time.Since(t0)
	if err != nil {
		return fmt.Errorf("restoring the last checkpoint: %w", err)
	}
	defer restored.Close()
	var buf []prompt.Tuple
	for _, entry := range r.sinceImage {
		buf = r.Cycle.Restamp(buf, entry, restored.Now())
		if _, err := restored.ProcessBatch(buf); err != nil {
			return fmt.Errorf("replaying cycle entry %d on the restored stream: %w", entry, err)
		}
	}
	if err := diffWindows("window of the restored and replayed stream", restored.Window(), ref); err != nil {
		return err
	}

	bound, err := r.churn.ApproxErrorBound()
	if err != nil {
		return fmt.Errorf("ApproxErrorBound: %w", err)
	}
	for _, e := range topEntries(ref, TopKSize) {
		est, err := r.churn.ApproxEstimate(e.key)
		if err != nil {
			return fmt.Errorf("ApproxEstimate(%q): %w", e.key, err)
		}
		if math.Abs(est-e.val) > bound {
			return fmt.Errorf("count-min estimate of %q is %v, exact %v: off by more than the advertised bound %v", e.key, est, e.val, bound)
		}
	}
	return nil
}

// diffWindows reports the first key, in key order, on which got and
// want disagree. A key absent from one side counts as 0 there, so an
// evicted key the engine still lists with value 0 is not a difference.
func diffWindows(what string, got, want map[string]float64) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, gok := got[k]
		w, wok := want[k]
		if g != w {
			return fmt.Errorf("%s differs at key %q: engine has %v (present %v), reference has %v (present %v)", what, k, g, gok, w, wok)
		}
	}
	return nil
}

type keyVal struct {
	key string
	val float64
}

// topEntries returns the k largest entries of m, ties broken by key.
func topEntries(m map[string]float64, k int) []keyVal {
	all := make([]keyVal, 0, len(m))
	for key, val := range m {
		all = append(all, keyVal{key, val})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].val != all[j].val {
			return all[i].val > all[j].val
		}
		return all[i].key < all[j].key
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
