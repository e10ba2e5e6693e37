// Package experiment regenerates every table and figure of the paper's
// evaluation (§7) on the simulated substrate: the dataset property table
// (Table 1), the partitioning-quality comparison (Figure 10), the
// throughput studies under variable rate and skew (Figure 11), the
// elasticity traces (Figure 12), the latency distributions (Figure 13),
// the overhead studies (Figure 14), and the Figure 6 bin-packing ablation.
//
// Each experiment returns a typed result with a Print method; the
// cmd/promptbench tool selects experiments by id and prints the same
// rows/series the paper reports. Absolute numbers differ from the paper's
// EC2 cluster — the harness reproduces the shape: which technique wins, by
// roughly what factor, and where crossovers fall.
package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"

	"prompt/internal/core"
	"prompt/internal/engine"
	"prompt/internal/metrics"
	"prompt/internal/partition"
	"prompt/internal/stats"
	"prompt/internal/tuple"
	"prompt/internal/workload"
)

// Params scales the experiments. Defaults suit a laptop run of a few
// seconds per experiment; Full() approaches the paper's regime.
type Params struct {
	// Blocks (p) and Reducers (r) set the parallelism for quality and
	// throughput experiments.
	Blocks   int
	Reducers int
	// Cores backs the simulated stages.
	Cores int
	// BatchTuples sizes the quality-experiment batches (Figure 10/6/14b).
	BatchTuples int
	// Cardinality scales the dataset key universes.
	Cardinality int
	// WarmupBatches and MeasureBatches configure throughput runs.
	WarmupBatches  int
	MeasureBatches int
	// SearchLo and SearchHi bound the max-throughput bisection
	// (tuples/second), with SearchTol the relative tolerance.
	SearchLo, SearchHi float64
	SearchTol          float64
	// Cost is the simulated task cost model used by throughput runs.
	Cost metrics.CostModel
	// Seed makes every experiment reproducible.
	Seed int64
}

// Default returns laptop-scale parameters.
func Default() Params {
	return Params{
		Blocks:         8,
		Reducers:       8,
		Cores:          8,
		BatchTuples:    200_000,
		Cardinality:    50_000,
		WarmupBatches:  2,
		MeasureBatches: 5,
		SearchLo:       5_000,
		SearchHi:       600_000,
		SearchTol:      0.04,
		Cost:           throughputCostModel(),
		Seed:           1,
	}
}

// Quick returns reduced parameters for unit tests and smoke runs.
func Quick() Params {
	p := Default()
	p.BatchTuples = 20_000
	p.Cardinality = 5_000
	p.WarmupBatches = 1
	p.MeasureBatches = 3
	p.SearchTol = 0.1
	p.SearchHi = 200_000
	return p
}

// Full returns parameters closer to the paper's scale (minutes per
// experiment).
func Full() Params {
	p := Default()
	p.Blocks = 32
	p.Reducers = 32
	p.Cores = 32
	p.BatchTuples = 1_000_000
	p.Cardinality = 500_000
	p.MeasureBatches = 8
	p.SearchHi = 4_000_000
	p.SearchTol = 0.02
	return p
}

// throughputCostModel is calibrated so the default parallelism saturates
// in the 100k-1M tuples/second range, keeping bisection runs fast while
// leaving headroom for partitioning quality to move the needle: per-tuple
// costs dominate, cross-Map fragment aggregation is expensive enough that
// careless key splitting hurts, and the per-task launch overhead matches
// the tens of milliseconds a Spark task costs — which is what makes
// longer batch intervals amortize better (Figure 11's upward trend across
// 1/2/3 s intervals).
func throughputCostModel() metrics.CostModel {
	return metrics.CostModel{
		MapFixed:          25 * tuple.Millisecond,
		MapPerTuple:       12 * tuple.Microsecond,
		MapPerKey:         2 * tuple.Microsecond,
		ReduceFixed:       25 * tuple.Millisecond,
		ReducePerTuple:    6 * tuple.Microsecond,
		ReducePerFragment: 30 * tuple.Microsecond,
	}
}

// engineConfig assembles the common engine configuration for a scheme.
func (p Params) engineConfig(s core.Scheme, interval tuple.Time) engine.Config {
	cfg := engine.Config{
		BatchInterval: interval,
		MapTasks:      p.Blocks,
		ReduceTasks:   p.Reducers,
		Cores:         p.Cores,
		Cost:          p.Cost,
	}
	return s.Apply(cfg)
}

// datasetDefaults derives generator scale from the parameters.
func (p Params) datasetDefaults() workload.DatasetDefaults {
	return workload.DatasetDefaults{Cardinality: p.Cardinality, Seed: p.Seed}
}

// oneBatch materializes a single batch of about p.BatchTuples tuples from
// the named dataset, for the partitioning-quality experiments.
func (p Params) oneBatch(dataset string, z float64) (*tuple.Batch, error) {
	rate := float64(p.BatchTuples) // tuples/second over a 1 s interval
	src, err := workload.ByName(dataset, workload.ConstantRate(rate), z, p.datasetDefaults())
	if err != nil {
		return nil, err
	}
	ts, err := src.Slice(0, tuple.Second)
	if err != nil {
		return nil, err
	}
	return &tuple.Batch{Start: 0, End: tuple.Second, Tuples: ts}, nil
}

// inputFor derives the partitioner input for a batch, post-sorted the way
// the engine's receiver would hand it over.
func inputFor(b *tuple.Batch) (partition.Input, error) {
	sorted, err := stats.PostSort(b)
	if err != nil {
		return partition.Input{}, err
	}
	return partition.Input{Batch: b, Sorted: sorted}, nil
}

// newTabWriter returns the standard table writer for Print methods.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// fmtF renders a float with sensible precision for tables.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0.01:
		return fmt.Sprintf("%.4f", v)
	case v < 10:
		return fmt.Sprintf("%.3f", v)
	case v < 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
