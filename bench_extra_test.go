// Additional micro-benchmarks for the substrate pieces outside the
// paper's figures: window maintenance, reordering, trace parsing, and the
// workload generators themselves.
package prompt_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"prompt"

	"prompt/internal/engine"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

func BenchmarkWindowAddBatch(b *testing.B) {
	agg, err := window.NewAggregator(window.Sliding(30*tuple.Second, tuple.Second),
		window.Sum, window.SumInverse)
	if err != nil {
		b.Fatal(err)
	}
	// Each batch touches 10k keys.
	batch := make(map[string]float64, 10_000)
	for i := 0; i < 10_000; i++ {
		batch[fmt.Sprintf("k%d", i)] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.AddBatch(tuple.Time(i+1)*tuple.Second, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(10_000, "keys/op")
}

func BenchmarkReordererIngestSeal(b *testing.B) {
	inner := func() *workload.Source {
		src, err := workload.Tweets(workload.ConstantRate(100_000),
			workload.DatasetDefaults{Cardinality: 20_000, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		return src
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		jit, err := workload.NewJittered(inner(), 100*tuple.Millisecond, 7)
		if err != nil {
			b.Fatal(err)
		}
		arrivals, err := jit.Arrivals(0, tuple.Second+100*tuple.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		r, err := engine.NewReorderer(100 * tuple.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, a := range arrivals {
			r.Ingest(a)
		}
		r.AdvanceWatermark(tuple.Second + 100*tuple.Millisecond)
		if _, err := r.Seal(tuple.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceReadWrite(b *testing.B) {
	batch := benchBatch(b, 100_000)
	tr := workload.NewTrace("bench", batch.Tuples)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.ReadTrace("bench", bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "tuples/op")
}

func BenchmarkSourceGeneration(b *testing.B) {
	for _, name := range []string{"tweets", "synd", "debs", "gcm", "tpch"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src, err := workload.ByName(name, workload.ConstantRate(100_000), 1.0,
					workload.DatasetDefaults{Cardinality: 50_000, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := src.Slice(0, tuple.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineStepPromptVsHash(b *testing.B) {
	for _, scheme := range []prompt.Scheme{prompt.SchemePrompt, prompt.SchemeHash, prompt.SchemeTime} {
		b.Run(string(scheme), func(b *testing.B) {
			src, err := workload.Tweets(workload.ConstantRate(100_000),
				workload.DatasetDefaults{Cardinality: 20_000, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := newBenchStream(b, scheme)
				src.Reset()
				ts, err := src.Slice(0, tuple.Second)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := st.ProcessBatch(ts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newBenchStream builds a public-API stream for the step benchmarks.
func newBenchStream(b *testing.B, scheme prompt.Scheme) *prompt.Stream {
	b.Helper()
	st, err := prompt.New(prompt.Config{Scheme: scheme},
		prompt.WordCount(30*time.Second, time.Second))
	if err != nil {
		b.Fatal(err)
	}
	return st
}
