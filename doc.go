// Package prompt is a from-scratch reproduction of "Prompt: Dynamic
// Data-Partitioning for Distributed Micro-batch Stream Processing Systems"
// (Abdelhamid, Mahmood, Daghistani, Aref — SIGMOD 2020).
//
// Prompt is a data-partitioning scheme for micro-batch stream processing
// engines (Spark Streaming and its relatives). It replaces the engine's
// partitioning decisions at four points:
//
//   - Algorithm 1 — frequency-aware buffering: while a batch accumulates,
//     a hash table buffers each key's tuples and publishes its frequency
//     under a per-key update budget; at the heartbeat the keys come out
//     quasi-sorted by published frequency (the paper's CountTree order,
//     computed here with one sort, since a batch is folded whole).
//   - Algorithm 2 — micro-batch partitioning: a greedy heuristic for the
//     NP-hard Balanced Bin Packing with Fragmentable Items problem splits
//     the batch into equal-size, equal-cardinality data blocks with
//     minimal key fragmentation.
//   - Algorithm 3 — reduce bucket allocation: each Map task locally
//     assigns its key clusters to Reduce buckets with Worst-Fit plus
//     rotation; split keys route by hashing so no coordination is needed.
//   - Algorithm 4 — latency-aware auto-scaling: a threshold controller on
//     W = processing time / batch interval adds or removes Map and Reduce
//     tasks, attributing load changes to data rate vs data distribution.
//
// This package is the public API: it wires those algorithms (or any of the
// baseline techniques the paper compares against: time-based, shuffle,
// hash, PK-2, PK-5, cAM) into a micro-batch engine running on a simulated
// cluster, exposes windowed streaming queries over it, and reports
// per-batch partitioning quality, stage times, latency, and stability.
//
// # Quick start
//
// Functional options are the construction path; every knob is a With*
// option folded over the defaults:
//
//	st, err := prompt.NewWithOptions(prompt.WordCount(30*time.Second, time.Second),
//		prompt.WithBatchInterval(time.Second),
//		prompt.WithParallelism(8, 8),
//		prompt.WithScheme(prompt.SchemePrompt),
//		prompt.WithWorkers(-1), // execute the pipeline on GOMAXPROCS goroutines
//	)
//	if err != nil { ... }
//	rep, err := st.ProcessBatch(tuples) // tuples from your receiver
//
// ProcessBatch transposes the caller's rows once into the engine's column
// batch; everything after that edge — statistics, partitioning, Map —
// reads columns.
//
// NewMultiWithOptions accepts the same options and runs several queries
// over one shared batching phase; New and NewMulti remain as thin
// Config-struct wrappers for callers that load configuration wholesale.
// After construction, Reconfigure applies the runtime-changeable subset
// (WithParallelism, WithCores, WithWorkers, WithObserver) at the next
// batch boundary and rejects everything else with ErrBadConfig.
//
// Scheme is a typed string with constants for every accepted technique
// (SchemePrompt, SchemeHash, …); ParseScheme validates runtime strings
// from flags or config files. Construction and option errors wrap
// ErrBadConfig, and TopK on a windowless query returns ErrNoWindow, so
// callers can branch with errors.Is.
//
// # Elasticity
//
// WithElasticity attaches a latency-aware auto-scale policy (threshold or
// cost-aware) that observes every batch report and resizes
// the Map/Reduce parallelism within [min, max]. Every resize — and every
// explicit Rescale call — changes the key-range owner count at a batch
// boundary: the affected window state is extracted, serialized, and
// handed to its new owner, and the answers stay bit-identical to a
// static run. Owners and Migrations expose the migration activity.
//
// # Runtime parallelism
//
// By default the whole batch lifecycle runs on the calling goroutine, like
// the classic Spark driver. Config.Workers (or WithWorkers, at
// construction or through Reconfigure mid-run) executes the pipeline on a
// shared worker pool instead: Map tasks, per-bucket Reduce folds,
// per-query jobs, window merges, and the partitioner's per-key weight
// pass fan out across real goroutines. The Algorithm 1 statistics pass
// stays one fold on the driver goroutine. Results merge
// deterministically, so the worker count changes wall-clock time only:
// every BatchReport field is identical at any Workers setting.
//
// See examples/ for runnable programs and EXPERIMENTS.md for the harness
// that regenerates the paper's tables and figures.
package prompt
