package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// accShape is one seeded Algorithm 1 input: a Zipf key stream (z = 0 is
// uniform) cut into consecutive batch intervals. The first three mirror
// the bench workloads' inputs (cluster-uds feeds the zipf-hot input, so it
// has no shape of its own); the next sweep skew at 10^4 and 10^6 keys; the
// last gives every key a long shared prefix, so that ties in frequency are
// broken past the first eight bytes.
type accShape struct {
	name    string
	keys    int
	zipf    float64
	tuples  int // per batch
	batches int
	sum     bool   // payloads 1..100 instead of 1
	prefix  string // prepended to every key; "k" when empty
}

func accShapes() []accShape {
	return []accShape{
		{name: "zipf-hot", keys: 20_000, zipf: 1.0, tuples: 50_000, batches: 4},
		{name: "uniform-wide", keys: 200_000, tuples: 10_000, batches: 4, sum: true},
		{name: "state-churn", keys: 30_000, zipf: 0.8, tuples: 10_000, batches: 4, sum: true},
		{name: "zipf0.1-1e4", keys: 10_000, zipf: 0.1, tuples: 20_000, batches: 3},
		{name: "zipf1.0-1e4", keys: 10_000, zipf: 1.0, tuples: 20_000, batches: 3},
		{name: "zipf2.0-1e4", keys: 10_000, zipf: 2.0, tuples: 20_000, batches: 3},
		{name: "zipf0.1-1e6", keys: 1_000_000, zipf: 0.1, tuples: 100_000, batches: 3},
		{name: "zipf1.0-1e6", keys: 1_000_000, zipf: 1.0, tuples: 100_000, batches: 3},
		{name: "zipf2.0-1e6", keys: 1_000_000, zipf: 2.0, tuples: 100_000, batches: 3},
		{name: "zipf1.0-1e4-longkeys", keys: 10_000, zipf: 1.0, tuples: 20_000, batches: 3, prefix: "tenant/session/"},
	}
}

// shapeInterval is the batch interval every shape is cut into, the bench
// workloads' 100 ms.
const shapeInterval = 100 * tuple.Millisecond

// shapeInput is a generated shape: the batches, interned in arrival order
// into dict, with batch b covering [b, b+1) intervals.
type shapeInput struct {
	dict    *intern.Dict
	batches []*tuple.ColumnBatch
}

var (
	shapeMu    sync.Mutex
	shapeCache = map[string]*shapeInput{}
)

// input generates the shape from a fixed seed, once per test binary: the
// same shape always yields the same batches, IDs included. Keys are drawn
// by inverse-CDF Zipf and stamped evenly across the interval, as the
// bench harness does.
func (s accShape) input() *shapeInput {
	shapeMu.Lock()
	defer shapeMu.Unlock()
	if in, ok := shapeCache[s.name]; ok {
		return in
	}
	rng := rand.New(rand.NewSource(1))
	cdf := make([]float64, s.keys)
	var total float64
	for i := range cdf {
		total += math.Pow(float64(i+1), -s.zipf)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[s.keys-1] = 1
	prefix := s.prefix
	if prefix == "" {
		prefix = "k"
	}
	in := &shapeInput{dict: intern.NewDict(0)}
	ids := make(map[int]uint32)
	for b := 0; b < s.batches; b++ {
		start := tuple.Time(b) * shapeInterval
		cb := &tuple.ColumnBatch{Start: start, End: start + shapeInterval}
		cb.Grow(s.tuples)
		for i := 0; i < s.tuples; i++ {
			rank := min(sort.SearchFloat64s(cdf, rng.Float64()), s.keys-1)
			id, ok := ids[rank]
			if !ok {
				id = in.dict.Intern(prefix + strconv.Itoa(rank))
				ids[rank] = id
			}
			val := 1.0
			if s.sum {
				val = float64(1 + rng.Intn(100))
			}
			cb.Append(id, start+tuple.Time(int64(i)*int64(shapeInterval)/int64(s.tuples)), val, 1)
		}
		in.batches = append(in.batches, cb)
	}
	shapeCache[s.name] = in
	return in
}

// feedFunc hands one batch to an accumulator: addColumns as the engine
// does, or addRows, addMixed.
type feedFunc func(a *Accumulator, cb *tuple.ColumnBatch) error

func addColumns(a *Accumulator, cb *tuple.ColumnBatch) error { return a.AddColumns(cb) }

// addRows feeds the batch one row at a time through Add, re-interning
// each key by its string, each row arriving at its own timestamp.
func addRows(a *Accumulator, cb *tuple.ColumnBatch) error {
	return addRowRange(a, cb, 0, cb.Len())
}

// addMixed feeds the first half of the batch through AddColumns and the
// rest row by row through Add, so Finalize seals a log both forms wrote.
func addMixed(a *Accumulator, cb *tuple.ColumnBatch) error {
	h := cb.Len() / 2
	head := &tuple.ColumnBatch{Start: cb.Start, End: cb.End,
		IDs: cb.IDs[:h], TS: cb.TS[:h], Vals: cb.Vals[:h], W: cb.W[:h]}
	if err := a.AddColumns(head); err != nil {
		return err
	}
	return addRowRange(a, cb, h, cb.Len())
}

// addRowRange feeds rows [from, to) of the batch through Add.
func addRowRange(a *Accumulator, cb *tuple.ColumnBatch, from, to int) error {
	keys := a.dict.Strings()
	cols := tuple.ColSlice{TS: cb.TS, Vals: cb.Vals, W: cb.W}
	for i := from; i < to; i++ {
		if err := a.Add(cols.Tuple(keys[cb.IDs[i]], i), cb.TS[i]); err != nil {
			return err
		}
	}
	return nil
}

// run folds every batch of the shape through one accumulator the way the
// engine does — Reset with the previous batch's (N, |K|) as estimates,
// feed, Finalize — and hands each batch's output to visit.
func (in *shapeInput) run(tb testing.TB, feed feedFunc, visit func([]SortedKey, BatchStats)) {
	tb.Helper()
	cfg := DefaultAccumulatorConfig()
	var a *Accumulator
	for _, cb := range in.batches {
		var err error
		if a == nil {
			a, err = NewAccumulatorDict(cfg, in.dict, cb.Start, cb.End)
		} else {
			err = a.Reset(cfg, cb.Start, cb.End)
		}
		if err != nil {
			tb.Fatal(err)
		}
		if err := feed(a, cb); err != nil {
			tb.Fatal(err)
		}
		out, st := a.Finalize()
		visit(out, st)
		cfg.EstimatedTuples, cfg.EstimatedKeys = st.Tuples, st.Keys
	}
}

// finalizeDigest is the SHA-256 of every batch's statistics and Finalize
// output, in order: per key its string, Count and every (TS, Vals, W) row.
func (in *shapeInput) finalizeDigest(tb testing.TB, feed feedFunc) string {
	h := sha256.New()
	var buf []byte
	in.run(tb, feed, func(out []SortedKey, st BatchStats) {
		buf = appendDigest(buf[:0], out, st)
		h.Write(buf)
	})
	return hex.EncodeToString(h.Sum(nil))
}

// appendDigest appends the bytes finalizeDigest hashes for one batch.
func appendDigest(buf []byte, out []SortedKey, st BatchStats) []byte {
	for _, v := range []int64{int64(st.Tuples), int64(st.Keys), int64(st.TreeUpdates), int64(st.Start), int64(st.End)} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, sk := range out {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(sk.Key)))
		buf = append(buf, sk.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sk.Count))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sk.Cols.Len()))
		for i := range sk.Cols.TS {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(sk.Cols.TS[i]))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sk.Cols.Vals[i]))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(sk.Cols.W[i]))
		}
	}
	return buf
}

// TestFinalizeOrderPinned pins Algorithm 1's observable output — the
// quasi-sorted key order, exact counts, every buffered row and the
// statistics including TreeUpdates — bit for bit on every shape. The
// digests were recorded from the pointer-AVL CountTree this order
// replaced, so a change to the fold, the budget discipline or Finalize's
// tie-break shows up here.
func TestFinalizeOrderPinned(t *testing.T) {
	want := map[string]string{
		"zipf-hot":     "24518fdbf56faa757bd5c87509059b7d3cf9457624992d7b7a7f1b400d67a426",
		"uniform-wide": "8ee05f246e2c0cb4c6f8f1f753b3a51643b3d799335e5c37803bb027f244d0da",
		"state-churn":  "bd23ccdf1dd815394ab818667b5d57de878b8ec2d491b07bcf29c1d3f450317c",
		"zipf0.1-1e4":  "9c6a1726e6f84a33c065f79d60797510378788fab9f45cb7deea2b646576614b",
		"zipf1.0-1e4":  "e2d45a7d4b4c93d30ebb02fbcd0bead3ee565ecfdf1a6ff8fcf541792bd499e7",
		"zipf2.0-1e4":  "d5bfb78350823b37ca733ce5653f5b57b70ff8a3a2612dcd64c50b792c94fcb8",
		"zipf0.1-1e6":  "8654712e2daaa0dae15ee426626b283c0573a328ec63d6fbace3e4db88e054b0",
		"zipf1.0-1e6":  "863768466981b3327bead48a6f644e2c2fc9a7aaecdaf5fc21fe493426c31505",
		"zipf2.0-1e6":  "29ff4c6a535659ea3078bd4176df95c14dd01e02be57740df2d15ead6e3fdec5",

		"zipf1.0-1e4-longkeys": "18eed71e6c9fd52a568cbf075e2c30b552aee1c90c817f9d8a29dbd5b83ddabb",
	}
	for _, s := range accShapes() {
		t.Run(s.name, func(t *testing.T) {
			if got := s.input().finalizeDigest(t, addColumns); got != want[s.name] {
				t.Errorf("Finalize digest %s, want %s", got, want[s.name])
			}
		})
	}
}

// TestAccumulatorRowsMatchColumns pins the row form to the column form:
// on every shape, feeding the rows one at a time through Add, or half
// through AddColumns and the rest through Add, logs and scatters the same
// rows, so Finalize's output hashes the same as the engine's AddColumns.
func TestAccumulatorRowsMatchColumns(t *testing.T) {
	for _, s := range accShapes() {
		t.Run(s.name, func(t *testing.T) {
			in := s.input()
			want := in.finalizeDigest(t, addColumns)
			if got := in.finalizeDigest(t, addRows); got != want {
				t.Errorf("rows through Add: digest %s, AddColumns %s", got, want)
			}
			if got := in.finalizeDigest(t, addMixed); got != want {
				t.Errorf("AddColumns then Add: digest %s, AddColumns %s", got, want)
			}
		})
	}
}

// TestAccumulatorSteadyStateZeroAlloc checks that the steady state the
// engine runs — Reset, AddColumns and Finalize on batches whose keys the
// accumulator has seen — allocates nothing on the bench shapes: the
// HTable and its cold columns, the log, the arena, the sort scratch and
// the output slice are all reused.
func TestAccumulatorSteadyStateZeroAlloc(t *testing.T) {
	for _, s := range accShapes()[:3] {
		t.Run(s.name, func(t *testing.T) {
			in := s.input()
			cfg := DefaultAccumulatorConfig()
			first := in.batches[0]
			a, err := NewAccumulatorDict(cfg, in.dict, first.Start, first.End)
			if err != nil {
				t.Fatal(err)
			}
			pass := func() {
				for _, cb := range in.batches {
					if err := a.Reset(cfg, cb.Start, cb.End); err != nil {
						t.Fatal(err)
					}
					if err := a.AddColumns(cb); err != nil {
						t.Fatal(err)
					}
					_, st := a.Finalize()
					cfg.EstimatedTuples, cfg.EstimatedKeys = st.Tuples, st.Keys
				}
			}
			pass() // establish capacity
			if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
				t.Errorf("steady-state Reset+AddColumns+Finalize allocates %.0f times a pass of %d batches, want 0",
					allocs, len(in.batches))
			}
		})
	}
}

// BenchmarkAccumulator is the ranked Algorithm 1 table: per shape, the
// steady state the engine runs (Reset with fed-back estimates, AddColumns,
// Finalize) over the shape's batches in turn, after one warm pass.
func BenchmarkAccumulator(b *testing.B) {
	for _, s := range accShapes() {
		b.Run(s.name, func(b *testing.B) {
			in := s.input()
			cfg := DefaultAccumulatorConfig()
			first := in.batches[0]
			a, err := NewAccumulatorDict(cfg, in.dict, first.Start, first.End)
			if err != nil {
				b.Fatal(err)
			}
			for _, cb := range in.batches { // warm pass: arena, buffers, estimates
				if err := a.Reset(cfg, cb.Start, cb.End); err != nil {
					b.Fatal(err)
				}
				if err := a.AddColumns(cb); err != nil {
					b.Fatal(err)
				}
				_, st := a.Finalize()
				cfg.EstimatedTuples, cfg.EstimatedKeys = st.Tuples, st.Keys
			}
			var tuples int
			var finalize time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cb := in.batches[i%len(in.batches)]
				if err := a.Reset(cfg, cb.Start, cb.End); err != nil {
					b.Fatal(err)
				}
				if err := a.AddColumns(cb); err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				_, st := a.Finalize()
				finalize += time.Since(t0)
				cfg.EstimatedTuples, cfg.EstimatedKeys = st.Tuples, st.Keys
				tuples += cb.Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
			b.ReportMetric(float64(finalize.Microseconds())/float64(b.N), "finalize_us")
		})
	}
}
