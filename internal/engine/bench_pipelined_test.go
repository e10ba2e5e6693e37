package engine

import (
	"fmt"
	"testing"
	"time"

	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// fetchLatencySource models a remote ingest source — a broker or
// receiver log on the other side of a wire: every Slice pays a fixed
// fetch round trip before the tuples land. Under the pipelined driver
// the fetch for batch k+1 overlaps batch k's backend, so the round trip
// disappears from the sustained rate; the sequential driver pays it in
// full on every batch.
type fetchLatencySource struct {
	src   *workload.Source
	delay time.Duration
}

func (f fetchLatencySource) Slice(start, end tuple.Time) ([]tuple.Tuple, error) {
	time.Sleep(f.delay)
	return f.src.Slice(start, end)
}

func (f fetchLatencySource) Reset() { f.src.Reset() }

// pipelinedQueries is the multi-query serving mix the pipelined cells
// run: six queries over shared accumulation. The frontend (statistics
// and partitioning, Algorithms 1-2) runs once per batch regardless of
// query count, while the backend processes every query — the production
// shape that gives the commit lane real work to overlap with the next
// batch's ingest and partitioning.
func pipelinedQueries() []Query {
	return []Query{
		WordCount(window.Sliding(10*tuple.Second, tuple.Second)),
		SumQuery("sum", window.Sliding(10*tuple.Second, tuple.Second)),
		WordCount(window.Sliding(30*tuple.Second, tuple.Second)),
		SumQuery("sum5", window.Sliding(5*tuple.Second, tuple.Second)),
		WordCount(window.Sliding(60*tuple.Second, tuple.Second)),
		SumQuery("sum20", window.Sliding(20*tuple.Second, tuple.Second)),
	}
}

func newPipelinedEngine(tb testing.TB, hs hotPathScheme, workers, depth int) *Engine {
	tb.Helper()
	eng, err := NewMulti(hs.config(hotPathConfig(workers)), pipelinedQueries())
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.SetPipelineDepth(depth); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// BenchmarkPipelinedRun measures sustained multi-batch throughput of the
// RunBatches driver at pipeline depth 1 (the classic sequential loop)
// versus depth 2 (frontend of batch k+1 overlapped with backend of
// batch k) at workers=4 over the four-query serving mix, across
// scheme × key-skew × ingest cells. One op is a full 16-batch run on a
// fresh engine, so ns/op is the wall clock of the whole run and the
// reported batches/s metric is the sustained rate. Answers are
// bit-identical at every depth (pinned by
// TestPipelinedDepthEquivalence), so any delta is pure wall clock.
//
// The ingest axis separates the two overlap sources: ingest=hot slices
// from memory, so depth 2 only wins CPU overlap (needs spare cores);
// ingest=remote pays a 16ms fetch round trip per slice, which depth 2
// hides behind the previous batch's backend on any core count.
func BenchmarkPipelinedRun(b *testing.B) {
	const (
		rate       = 20_000 // tuples per one-second batch
		card       = 5_000  // distinct keys
		runBatches = 16     // batches per run (one op)
		workers    = 4
		fetchRTT   = 16 * time.Millisecond
	)
	for _, hs := range hotPathSchemes() {
		for _, skew := range []string{"uniform", "zipf"} {
			for _, ingest := range []string{"hot", "remote"} {
				for _, depth := range []int{1, 2} {
					name := fmt.Sprintf("scheme=%s/skew=%s/ingest=%s/depth=%d", hs.name, skew, ingest, depth)
					b.Run(name, func(b *testing.B) {
						base := hotPathSource(b, skew, rate, card)
						var src workload.Stream = base
						if ingest == "remote" {
							src = fetchLatencySource{src: base, delay: fetchRTT}
						}
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							b.StopTimer()
							eng := newPipelinedEngine(b, hs, workers, depth)
							src.Reset()
							b.StartTimer()
							if _, err := eng.RunBatches(src, runBatches); err != nil {
								b.Fatal(err)
							}
						}
						b.StopTimer()
						if secs := b.Elapsed().Seconds(); secs > 0 {
							b.ReportMetric(float64(runBatches*b.N)/secs, "batches/s")
						}
					})
				}
			}
		}
	}
}
