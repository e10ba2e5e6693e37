package partition

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"prompt/internal/metrics"
	"prompt/internal/stats"
	"prompt/internal/tuple"
)

func TestPromptPaperExample(t *testing.T) {
	blocks := mustPartition(t, NewPrompt(), paperBatch(), 4)

	// Objective 1 — block-size equality: the zigzag pass does not maintain
	// live block sizes, so blocks may exceed the capacity ceil(385/4) = 97
	// by at most a small key; imbalance must stay near zero.
	for _, bl := range blocks {
		if bl.Weight() > 97+5 {
			t.Errorf("block %d weight %d far exceeds capacity 97", bl.ID, bl.Weight())
		}
	}
	if bsi := metrics.BSI(blocks); bsi > 3 {
		t.Errorf("prompt BSI %v, want near 0", bsi)
	}

	// Objective 2 — cardinality balance: the batch has 8 keys over 4
	// blocks; cardinalities must stay close to 2.
	for _, bl := range blocks {
		if c := bl.Cardinality(); c < 1 || c > 4 {
			t.Errorf("block %d cardinality %d, want 1..4", bl.ID, c)
		}
	}
	if bci := metrics.BCI(blocks); bci > 1.5 {
		t.Errorf("prompt BCI %v too high", bci)
	}

	// Objective 3 — key locality: fragmentation must not exceed FFD's.
	ffd := mustPartition(t, NewFirstFitDecreasing(), paperBatch(), 4)
	if metrics.KSR(blocks) > metrics.KSR(ffd) {
		t.Errorf("prompt KSR %v worse than ffd %v", metrics.KSR(blocks), metrics.KSR(ffd))
	}
}

func TestPromptStrikesBalance(t *testing.T) {
	// The paper's headline: Prompt dominates on the combined MPI metric
	// even where individual baselines win single metrics.
	b := randomBatch(21, 30000, 300)
	in := Input{Batch: b}
	prompt, err := NewPrompt().Partition(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []Partitioner{NewShuffle(), NewHash(), NewPKd(2), NewPKd(5)} {
		bl, err := base.Partition(in, 8)
		if err != nil {
			t.Fatal(err)
		}
		pm := metrics.Evaluate(prompt, metrics.EqualWeights).MPI
		bm := metrics.Evaluate(bl, metrics.EqualWeights).MPI
		if pm > bm {
			t.Errorf("prompt MPI %.4f worse than %s MPI %.4f", pm, base.Name(), bm)
		}
	}
}

func TestPromptRespectsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(5000)
		keys := 1 + rng.Intn(100)
		p := 1 + rng.Intn(12)
		b := randomBatch(seed, n, keys)
		blocks, err := NewPrompt().Partition(Input{Batch: b}, p)
		if err != nil {
			return false
		}
		if err := (&tuple.Partitioned{Batch: b, Blocks: blocks}).Validate(); err != nil {
			return false
		}
		cap := n/p + 1
		for _, bl := range blocks {
			// The spill path may exceed capacity by a bounded amount only
			// when a single key outweighs a whole block.
			if bl.Weight() > 2*cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPromptCardinalityNearUniform(t *testing.T) {
	// Many equal-sized keys: zigzag must deal them almost evenly.
	b := &tuple.Batch{Start: 0, End: tuple.Second}
	n := 0
	for i := 0; i < 64; i++ {
		for j := 0; j < 10; j++ {
			ts := tuple.Time(n)
			b.Tuples = append(b.Tuples, tuple.NewTuple(ts, fmt.Sprintf("k%02d", i), 1))
			n++
		}
	}
	blocks := mustPartition(t, NewPrompt(), b, 8)
	for _, bl := range blocks {
		if c := bl.Cardinality(); c != 8 {
			t.Errorf("block %d cardinality %d, want exactly 8", bl.ID, c)
		}
		if w := bl.Weight(); w != 80 {
			t.Errorf("block %d weight %d, want exactly 80", bl.ID, w)
		}
	}
	if ksr := metrics.KSR(blocks); ksr != 1 {
		t.Errorf("uniform keys need no splits, KSR = %v", ksr)
	}
}

func TestPromptSingleDominantKey(t *testing.T) {
	// One key holds 90% of the batch: it must be fragmented across blocks
	// while everything stays placed exactly once.
	b := &tuple.Batch{Start: 0, End: tuple.Second}
	for i := 0; i < 900; i++ {
		b.Tuples = append(b.Tuples, tuple.NewTuple(tuple.Time(i), "hot", 1))
	}
	for i := 0; i < 100; i++ {
		b.Tuples = append(b.Tuples, tuple.NewTuple(tuple.Time(900+i), fmt.Sprintf("c%d", i), 1))
	}
	blocks := mustPartition(t, NewPrompt(), b, 4)
	if bsi := metrics.BSI(blocks); bsi > 30 {
		t.Errorf("BSI %v too high with a dominant key", bsi)
	}
	hot := 0
	for _, bl := range blocks {
		for _, ks := range bl.Keys {
			if ks.Key == "hot" {
				hot++
				break
			}
		}
	}
	if hot < 2 {
		t.Errorf("dominant key should fragment across blocks, found in %d", hot)
	}
}

func TestPromptUsesQuasiSortedInput(t *testing.T) {
	// When the accumulator supplies a sorted list, Partition must consume
	// it rather than re-sorting: feeding a deliberately different order
	// changes the assignment.
	b := paperBatch()
	sorted, err := stats.PostSort(b)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPrompt().Partition(Input{Batch: b, Sorted: sorted}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&tuple.Partitioned{Batch: b, Blocks: a}).Validate(); err != nil {
		t.Fatal(err)
	}
	// Same content regardless of whether the engine passed Sorted.
	c, err := NewPrompt().Partition(Input{Batch: b}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Weight() != c[i].Weight() {
			t.Errorf("block %d differs between supplied and derived sort: %d vs %d",
				i, a[i].Weight(), c[i].Weight())
		}
	}
}

func TestPromptFewerKeysThanBlocks(t *testing.T) {
	b := &tuple.Batch{Start: 0, End: tuple.Second}
	for i := 0; i < 50; i++ {
		b.Tuples = append(b.Tuples, tuple.NewTuple(tuple.Time(i), fmt.Sprintf("k%d", i%2), 1))
	}
	blocks := mustPartition(t, NewPrompt(), b, 8)
	nonEmpty := 0
	for _, bl := range blocks {
		if bl.Size() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("only %d non-empty blocks for 2 keys over 8 blocks", nonEmpty)
	}
}

func TestPromptReferenceTableMatchesSplits(t *testing.T) {
	blocks := mustPartition(t, NewPrompt(), paperBatch(), 4)
	split := splitKeys(blocks)
	for _, bl := range blocks {
		// Reference tables are sparse: exactly the split keys are labelled.
		for _, ks := range bl.Keys {
			info, ok := bl.Ref[ks.Key]
			if split[ks.Key] && (!ok || !info.Split) {
				t.Errorf("block %d missing split label for %s", bl.ID, ks.Key)
			}
			if !split[ks.Key] && ok {
				t.Errorf("block %d labels non-split key %s (info %+v)", bl.ID, ks.Key, info)
			}
		}
	}
}

func TestPromptDenseKeyIDs(t *testing.T) {
	b := paperBatch()
	sorted, err := stats.PostSort(b)
	if err != nil {
		t.Fatal(err)
	}
	blocks := mustPartition(t, NewPrompt(), b, 4)
	// Every key slice carries the key's dictionary ID (both sides intern
	// the batch in arrival order), and all fragments of a key agree on it.
	ids := make(map[string]uint32, len(sorted))
	for i := range sorted {
		ids[sorted[i].Key] = sorted[i].ID
	}
	for _, bl := range blocks {
		for _, ks := range bl.Keys {
			if ks.ID != ids[ks.Key] {
				t.Errorf("block %d key %s has ID %d, want %d", bl.ID, ks.Key, ks.ID, ids[ks.Key])
			}
		}
	}
}

func TestPromptSingleBlockDegenerate(t *testing.T) {
	blocks := mustPartition(t, NewPrompt(), paperBatch(), 1)
	if blocks[0].Size() != 385 {
		t.Errorf("single block holds %d tuples, want 385", blocks[0].Size())
	}
	if ksr := metrics.KSR(blocks); ksr != 1 {
		t.Errorf("single block KSR = %v, want 1", ksr)
	}
}
