// Package harness is the benchmark's load generator, end-to-end driver
// and answer checker. It touches the engine only through the public
// prompt API (plus real `promptd shard` processes), so it keeps
// compiling across refactors of internal/...; the layer probes that do
// reach into internal packages live in the separate bench/layers binary.
package harness

import (
	"time"

	"prompt"
)

// Fixed shape of every workload run. One batch interval is the unit of
// the open-loop schedule, and the 3 s sliding window holds 30 batches.
const (
	Interval      = 100 * time.Millisecond
	WindowLen     = 3 * time.Second
	WindowBatches = int(WindowLen / Interval)
	WarmupBatches = 2 * WindowBatches
	MapTasks      = 8
	ReduceTasks   = 8
	TopKSize      = 100
)

// Workload describes one benchmark input and how the stream under test
// is configured for it.
type Workload struct {
	Name string
	Why  string

	Keys     int     // key universe
	Zipf     float64 // exponent; 0 draws keys uniformly
	Tuples   int     // per batch
	CycleLen int     // distinct generated batches

	Sum     bool // SlidingSum over payloads 1..100 instead of WordCount
	Workers int  // WithWorkers value; 0 keeps the single-goroutine driver
	Shards  int  // > 0: Map/Reduce folds run on that many shard runtimes, Run at depth 2
	Churn   bool // count-min tier on, and TopK / Checkpoint / Rescale between batches

	// ClosedChunk is how many batches one round's closed loop submits:
	// a fixed count, so that a seed always submits the same batches,
	// sized to take about 0.75 s at the speed the engine had when the
	// benchmark was written.
	ClosedChunk int
	// OpenChunk is how many batches one round's open loop submits, one
	// per Interval.
	OpenChunk int
}

// Workloads returns the benchmark's four workloads. The names are part
// of the benchmark's contract: later performance claims cite them.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "zipf-hot",
			Why:  "Zipf z=1 over 20k keys, 50k tuples/batch, WordCount, one goroutine: per-tuple work (intern + Alg. 1 accumulate) dominates; the single-threaded baseline",
			Keys: 20000, Zipf: 1.0, Tuples: 50000, CycleLen: 16, ClosedChunk: 18, OpenChunk: 20,
		},
		{
			Name: "uniform-wide",
			Why:  "uniform over 200k keys, 10k tuples/batch, SlidingSum, all cores: per-key work (window merge and eviction, partition) dominates; the only workload on the worker pool",
			Keys: 200000, Tuples: 10000, CycleLen: 32, Sum: true, Workers: -1, ClosedChunk: 22, OpenChunk: 20,
		},
		{
			Name: "cluster-uds",
			Why:  "the zipf-hot input over two promptd shard processes on unix sockets, pipeline depth 2: wire, transport and dist are on the critical path; minus zipf-hot it is the cost of distribution",
			Keys: 20000, Zipf: 1.0, Tuples: 50000, CycleLen: 16, Shards: 2, ClosedChunk: 14, OpenChunk: 20,
		},
		{
			Name: "state-churn",
			Why:  "Zipf z=0.8 over 30k keys, 10k tuples/batch, SlidingSum + count-min, with a TopK per batch and two Checkpoints and one Rescale per chunk: window state is read, snapshotted and moved, not only written",
			Keys: 30000, Zipf: 0.8, Tuples: 10000, CycleLen: 16, Sum: true, Churn: true, ClosedChunk: 20, OpenChunk: 25,
		},
	}
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Toy shrinks the workload to smoke-test size: the same configuration
// and code paths over 1 000 tuples per batch, a 4-batch cycle and
// 7-batch chunks.
func (w Workload) Toy() Workload {
	w.Tuples = 1000
	w.CycleLen = 4
	w.ClosedChunk, w.OpenChunk = 7, 7
	if w.Keys > 5000 {
		w.Keys = 5000
	}
	return w
}

// Query is the continuous query the workload runs.
func (w Workload) Query() prompt.Query {
	if w.Sum {
		return prompt.SlidingSum("sum", WindowLen, Interval)
	}
	return prompt.WordCount(WindowLen, Interval)
}

// Options configures the stream under test. topo is the cluster to
// connect to when the workload has shards (nil otherwise).
func (w Workload) Options(topo *prompt.Topology) []prompt.Option {
	opts := []prompt.Option{
		prompt.WithBatchInterval(Interval),
		prompt.WithParallelism(MapTasks, ReduceTasks),
		prompt.WithScheme(prompt.SchemePrompt),
	}
	if w.Workers != 0 {
		opts = append(opts, prompt.WithWorkers(w.Workers))
	}
	if topo != nil {
		opts = append(opts, prompt.WithTopology(*topo), prompt.WithPipelineDepth(2))
	}
	if w.Churn {
		opts = append(opts, prompt.WithApproxQuery(prompt.ApproxCountMin))
	}
	return opts
}

// restoreConfig is the Config equivalent of Options for prompt.Restore,
// which takes no options. Only state-churn restores, so only the fields
// that workload sets are mirrored.
func (w Workload) restoreConfig() prompt.Config {
	cfg := prompt.Config{
		BatchInterval: Interval,
		MapTasks:      MapTasks,
		ReduceTasks:   ReduceTasks,
		Scheme:        prompt.SchemePrompt,
		Workers:       w.Workers,
	}
	if w.Churn {
		cfg.Approx.Kind = prompt.ApproxCountMin
	}
	return cfg
}
