package harness

import (
	"encoding/json"
	"fmt"
	"io"
)

// Metric names one number the benchmark reports. Bound is the relative
// worsening that counts as a regression (end-to-end metrics only).
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd lists the six metrics a user of the engine would see; every
// workload reports all of them. BENCHMARK.json carries the same table
// and the smoke test keeps the two in step.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"tuples_per_s", "tuples/s", "higher", 0.25},
	{"delay_ms_p50", "ms", "lower", 0.25},
	{"delay_ms_p95", "ms", "lower", 0.25},
	{"cpu_us_per_tuple", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// PerLayer lists the traced run's metrics. A metric that does not apply
// to a workload (transport.* without shards, checkpoint.* without state
// actions) is reported as 0 there.
var PerLayer = []Metric{
	{Name: "engine.batch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.accumulate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.partition_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.process_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.commit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.batch_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "engine.alloc_kb_per_batch", Unit: "KB", Better: "lower"},
	{Name: "engine.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "engine.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "engine.pipeline_depth2_gain", Unit: "ratio", Better: "higher"},
	{Name: "intern.intern_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "tuple.transpose_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "stats.accumulate_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "stats.accumulate_rows_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "stats.finalize_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "stats.tree_updates_per_batch", Unit: "count", Better: "lower"},
	{Name: "stats.keys_per_batch", Unit: "count", Better: "lower"},
	{Name: "partition.prompt_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "partition.hash_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "partition.bsi", Unit: "tuples", Better: "lower"},
	{Name: "partition.bci", Unit: "keys", Better: "lower"},
	{Name: "partition.ksr", Unit: "ratio", Better: "lower"},
	{Name: "reducer.assign_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "reducer.bucket_bsi", Unit: "tuples", Better: "lower"},
	{Name: "window.addbatch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "window.live_keys", Unit: "count", Better: "lower"},
	{Name: "window.topk_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "window.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "approx.addbatch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "approx.bytes", Unit: "B", Better: "lower"},
	{Name: "wire.marshal_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_out_per_batch", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_in_per_batch", Unit: "B", Better: "lower"},
	{Name: "transport.exchange_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "transport.exchange_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "transport.exchanges_per_batch", Unit: "count", Better: "lower"},
	{Name: "transport.rtt_us_p50.loopback", Unit: "us", Better: "lower"},
	{Name: "transport.rtt_us_p50.pipe", Unit: "us", Better: "lower"},
	{Name: "transport.rtt_us_p50.unix", Unit: "us", Better: "lower"},
	{Name: "dist.coord_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "dist.process_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.shard_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "dist.shards_down", Unit: "count", Better: "lower"},
	{Name: "checkpoint.encode_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "checkpoint.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "migrate.rescale_stall_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "migrate.slots_moved", Unit: "count", Better: "lower"},
	{Name: "migrate.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "migrate.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "migrate.image_bytes", Unit: "B", Better: "lower"},
	{Name: "ring.push_drain_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "driver.open.start_lag_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "driver.open.backlog_batches_max", Unit: "count", Better: "lower"},
	{Name: "driver.open.late_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.restamp_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "driver.build_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// Value is one reported number.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is how many samples the number summarises; it is printed in the
	// text report and left out of the result line.
	N int `json:"-"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Fill builds a Result's metric map from raw values: every metric of
// the table is present exactly once, with the table's unit, and one
// that was not measured is 0.
func Fill(table []Metric, vals map[string]float64, ns map[string]int) map[string]Value {
	out := make(map[string]Value, len(table))
	for _, m := range table {
		out[m.Name] = Value{Value: vals[m.Name], Unit: m.Unit, N: ns[m.Name]}
	}
	return out
}

// PrintText writes the metrics by name with unit, sample count and,
// where one is fixed, bound.
func PrintText(w io.Writer, workload string, table []Metric, res Result) {
	fmt.Fprintf(w, "workload %s: correct=%v ops_attempted=%d ops_failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, m := range table {
		v := res.Metrics[m.Name]
		line := fmt.Sprintf("  %-36s %14.4f %-9s", m.Name, v.Value, m.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%-5d", v.N)
		}
		if m.Bound > 0 {
			line += fmt.Sprintf(" (%s is better, bound %.0f%%)", m.Better, m.Bound*100)
		}
		fmt.Fprintln(w, line)
	}
}

// PrintLine writes the result as the one-line JSON object that ends a
// run's standard output.
func PrintLine(w io.Writer, res Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
