package partition

import (
	"testing"

	"prompt/internal/intern"
	"prompt/internal/stats"
	"prompt/internal/tuple"
	"prompt/internal/workload"
)

// TestPartitionSteadyStateAllocCeiling bounds what one Partition call
// allocates in steady state, for every registered scheme fed the way the
// engine feeds it: the zipf-hot bench shape (50 000 tuples over 20 000
// Zipf keys) as columns over one dictionary, into 16 blocks, rebuilding
// the previous call's block set in place. The one block builder is pooled
// and the per-tuple schemes scatter into the blocks' own arenas, so a
// per-row or per-key allocation — a run grown by append, a slice of
// candidates per key — fails loudly. The ceiling sits far above what
// any scheme allocated when it was set (0–1 a call), and below one
// allocation per key.
func TestPartitionSteadyStateAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	ceiling := 100.0
	if raceEnabled {
		ceiling = 500 // the pool drops builders, which regrow (0–127 measured)
	}
	keys, err := workload.NewZipfSampler("k", 20_000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	src := &workload.Source{Name: "zipf-hot", Rate: workload.ConstantRate(50_000), Keys: keys, Seed: 42}
	rows, err := src.Slice(0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	dict := intern.NewDict(0)
	cols := &tuple.ColumnBatch{Start: 0, End: tuple.Second}
	if err := cols.Transpose(rows, dict); err != nil {
		t.Fatal(err)
	}
	sorted := stats.NewPostSorter(dict).Sort(cols)
	for _, name := range Names() {
		pt := Registry()[name]
		in := Input{Cols: cols, Dict: dict, Sorted: sorted}
		partitionOnce := func() {
			blocks, err := pt.Partition(in, 16)
			if err != nil {
				t.Fatal(err)
			}
			in.Blocks = blocks
		}
		partitionOnce()
		allocs := testing.AllocsPerRun(5, partitionOnce)
		t.Logf("%s: %.0f allocations per Partition call (ceiling %.0f)", name, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("%s allocates %.0f times per Partition call in steady state, ceiling %.0f", name, allocs, ceiling)
		}
	}
}
