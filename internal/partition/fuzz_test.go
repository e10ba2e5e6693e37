package partition

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// FuzzPartitioners drives every partitioner with randomized batches
// derived from the fuzz input and checks the universal invariants: no
// panic, exactly p blocks, every tuple placed exactly once, and reference
// tables consistent with actual splits. Each scheme sees the batch as
// rows and as columns over a dictionary that also holds keys the batch
// never uses, so the IDs the builder indexes by are sparse. A second call
// then rebuilds the first call's block set on a different batch, which
// must equal a run on fresh blocks: stale key slots or a reused arena
// would show there.
func FuzzPartitioners(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(10), uint8(4))
	f.Add(int64(2), uint16(1), uint8(1), uint8(1))
	f.Add(int64(3), uint16(5000), uint8(200), uint8(16))
	f.Add(int64(4), uint16(17), uint8(255), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, nTuples uint16, nKeys uint8, p uint8) {
		if nTuples == 0 || nKeys == 0 || p == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		first := fuzzBatch(rng, int(nTuples), int(nKeys))
		second := fuzzBatch(rng, int(nTuples)/2+1, int(nKeys))
		dict := intern.NewDict(0)
		for i := 0; i < int(nKeys); i++ {
			dict.Intern(fmt.Sprintf("unused%d", i))
			dict.Intern(fmt.Sprintf("k%d", i))
		}
		forms := map[string]func(*tuple.Batch) Input{
			"rows": func(b *tuple.Batch) Input { return Input{Batch: b} },
			"cols": func(b *tuple.Batch) Input {
				cb := &tuple.ColumnBatch{Start: b.Start, End: b.End}
				if err := cb.Transpose(b.Tuples, dict); err != nil {
					t.Fatal(err)
				}
				return Input{Cols: cb, Dict: dict}
			},
		}
		for name, pt := range Registry() {
			for form, input := range forms {
				run := func(b *tuple.Batch, set []*tuple.Block) []*tuple.Block {
					in := input(b)
					in.Blocks = set
					blocks, err := pt.Partition(in, int(p))
					if err != nil {
						t.Fatalf("%s (%s) rejected a valid batch: %v", name, form, err)
					}
					if len(blocks) != int(p) {
						t.Fatalf("%s (%s) returned %d blocks, want %d", name, form, len(blocks), p)
					}
					if err := (&tuple.Partitioned{Batch: b, Blocks: blocks}).Validate(); err != nil {
						t.Fatalf("%s (%s): %v", name, form, err)
					}
					if in.Cols != nil {
						for _, bl := range blocks {
							for _, ks := range bl.Keys {
								if got := dict.Resolve(ks.ID); got != ks.Key {
									t.Fatalf("%s (cols): key %q carries the ID of %q", name, ks.Key, got)
								}
							}
						}
					}
					return blocks
				}
				rebuilt := run(second, run(first, nil))
				if err := sameBlocks(rebuilt, run(second, nil)); err != nil {
					t.Fatalf("%s (%s): rebuilt block set differs from fresh blocks: %v", name, form, err)
				}
			}
		}
	})
}

// fuzzBatch draws n tuples over nKeys keys with weights 1–4, spread
// evenly over a one-second batch.
func fuzzBatch(rng *rand.Rand, n, nKeys int) *tuple.Batch {
	b := &tuple.Batch{Start: 0, End: tuple.Second}
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, tuple.Tuple{
			TS:     tuple.Time(int64(i) * int64(tuple.Second) / int64(n)),
			Key:    fmt.Sprintf("k%d", rng.Intn(nKeys)),
			Val:    1,
			Weight: 1 + rng.Intn(4),
		})
	}
	return b
}

// sameBlocks reports the first difference between two block sets: ids,
// key runs (key, ID and columns, in order), weights and reference tables.
func sameBlocks(a, b []*tuple.Block) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d blocks, want %d", len(a), len(b))
	}
	for i, x := range a {
		y := b[i]
		if x.ID != y.ID || x.Weight() != y.Weight() || len(x.Keys) != len(y.Keys) {
			return fmt.Errorf("block %d: id %d weight %d with %d runs, want id %d weight %d with %d runs",
				i, x.ID, x.Weight(), len(x.Keys), y.ID, y.Weight(), len(y.Keys))
		}
		for j, ks := range x.Keys {
			want := y.Keys[j]
			if ks.Key != want.Key || ks.ID != want.ID || !slices.Equal(ks.Cols.TS, want.Cols.TS) ||
				!slices.Equal(ks.Cols.Vals, want.Cols.Vals) || !slices.Equal(ks.Cols.W, want.Cols.W) {
				return fmt.Errorf("block %d run %d: %q (ID %d, %d rows), want %q (ID %d, %d rows)",
					i, j, ks.Key, ks.ID, ks.Len(), want.Key, want.ID, want.Len())
			}
		}
		if !maps.Equal(x.Ref, y.Ref) {
			return fmt.Errorf("block %d: reference table %v, want %v", i, x.Ref, y.Ref)
		}
	}
	return nil
}
