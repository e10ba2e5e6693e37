package tuple

import (
	"errors"
	"testing"
	"time"
)

// addRows places rows as one key run of bl, under the key's ID in a
// test-wide numbering (one ID per distinct key, as a dictionary gives).
func addRows(bl *Block, key string, rows ...Tuple) {
	var c ColSlice
	for _, t := range rows {
		c = c.Append(t.TS, t.Val, int32(t.Weight))
	}
	bl.AddDenseCols(key, testKeys.id(key), c, c.Weight())
}

var testKeys sliceInterner

// sliceInterner is a test Interner: it numbers keys in first-arrival
// order and counts the keys it was asked for.
type sliceInterner struct {
	keys  []string
	asked int
}

func (s *sliceInterner) id(k string) uint32 {
	s.asked++
	for i, have := range s.keys {
		if have == k {
			return uint32(i)
		}
	}
	s.keys = append(s.keys, k)
	return uint32(len(s.keys) - 1)
}

func (s *sliceInterner) InternBatch(ids []uint32, key func(i int) string) {
	for i := range ids {
		ids[i] = s.id(key(i))
	}
}

func TestTimeConversions(t *testing.T) {
	if got := FromDuration(1500 * time.Millisecond); got != 1500*Millisecond {
		t.Errorf("FromDuration(1.5s) = %v, want %v", got, 1500*Millisecond)
	}
	if got := (2 * Second).Duration(); got != 2*time.Second {
		t.Errorf("(2s).Duration() = %v, want 2s", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Errorf("(250ms).Seconds() = %v, want 0.25", got)
	}
	if got := (Second + Millisecond).String(); got != "1.001000s" {
		t.Errorf("String() = %q", got)
	}
}

func TestTimeUnits(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatal("sub-second unit ratios broken")
	}
	if Minute != 60*Second || Hour != 60*Minute {
		t.Fatal("super-second unit ratios broken")
	}
}

func TestNewTuple(t *testing.T) {
	tp := NewTuple(5*Second, "k", 2.5)
	if tp.TS != 5*Second || tp.Key != "k" || tp.Val != 2.5 || tp.Weight != 1 {
		t.Errorf("NewTuple = %+v", tp)
	}
}

func makeBatch(keys ...string) *Batch {
	b := &Batch{Start: 0, End: Second}
	for i, k := range keys {
		b.Tuples = append(b.Tuples, NewTuple(Time(i), k, 1))
	}
	return b
}

func TestBatchStats(t *testing.T) {
	b := makeBatch("a", "b", "a", "c", "a")
	if b.Len() != 5 {
		t.Errorf("Len = %d, want 5", b.Len())
	}
	if b.TotalWeight() != 5 {
		t.Errorf("TotalWeight = %d, want 5", b.TotalWeight())
	}
	if b.Cardinality() != 3 {
		t.Errorf("Cardinality = %d, want 3", b.Cardinality())
	}
	if b.Span() != Second {
		t.Errorf("Span = %v, want 1s", b.Span())
	}
}

func TestBlockAccounting(t *testing.T) {
	bl := NewBlock(3)
	if bl.ID != 3 {
		t.Fatalf("ID = %d", bl.ID)
	}
	addRows(bl, "a", NewTuple(0, "a", 1), NewTuple(1, "a", 1))
	addRows(bl, "b", NewTuple(2, "b", 1))
	if bl.Weight() != 3 || bl.Size() != 3 {
		t.Errorf("Weight=%d Size=%d, want 3/3", bl.Weight(), bl.Size())
	}
	if bl.Cardinality() != 2 {
		t.Errorf("Cardinality = %d, want 2", bl.Cardinality())
	}
	// A second fragment of "a" in the same block still counts once.
	addRows(bl, "a", NewTuple(3, "a", 1))
	if bl.Cardinality() != 2 {
		t.Errorf("Cardinality after same-key add = %d, want 2", bl.Cardinality())
	}
	if got := bl.Size(); got != 4 {
		t.Errorf("Size = %d, want 4", got)
	}
}

func TestBlockVariableWeights(t *testing.T) {
	bl := NewBlock(0)
	addRows(bl, "a", Tuple{TS: 0, Key: "a", Weight: 5}, Tuple{TS: 1, Key: "a", Weight: 3})
	if bl.Weight() != 8 {
		t.Errorf("Weight = %d, want 8", bl.Weight())
	}
	if bl.Size() != 2 {
		t.Errorf("Size = %d, want 2", bl.Size())
	}
}

func TestPartitionedValidateOK(t *testing.T) {
	b := makeBatch("a", "b", "a", "c")
	bl0, bl1 := NewBlock(0), NewBlock(1)
	addRows(bl0, "a", b.Tuples[0], b.Tuples[2])
	bl0.Ref["a"] = SplitInfo{Split: false, TotalSize: 2, Fragments: 1}
	addRows(bl1, "b", b.Tuples[1])
	addRows(bl1, "c", b.Tuples[3])
	p := &Partitioned{Batch: b, Blocks: []*Block{bl0, bl1}}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPartitionedValidateDetectsLoss(t *testing.T) {
	b := makeBatch("a", "b")
	bl := NewBlock(0)
	addRows(bl, "a", b.Tuples[0])
	p := &Partitioned{Batch: b, Blocks: []*Block{bl}}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a partition that dropped a tuple")
	}
}

func TestPartitionedValidateDetectsWrongRef(t *testing.T) {
	b := makeBatch("a", "a")
	bl0, bl1 := NewBlock(0), NewBlock(1)
	addRows(bl0, "a", b.Tuples[0])
	addRows(bl1, "a", b.Tuples[1])
	// Key "a" is split across two blocks but labelled non-split.
	bl0.Ref["a"] = SplitInfo{Split: false, TotalSize: 2, Fragments: 1}
	p := &Partitioned{Batch: b, Blocks: []*Block{bl0, bl1}}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted an inconsistent reference table")
	}
}

func TestPartitionedValidateDetectsDuplicates(t *testing.T) {
	b := makeBatch("a")
	bl0, bl1 := NewBlock(0), NewBlock(1)
	addRows(bl0, "a", b.Tuples[0])
	addRows(bl1, "a", b.Tuples[0]) // same tuple placed twice
	p := &Partitioned{Batch: b, Blocks: []*Block{bl0, bl1}}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a duplicated tuple")
	}
}

// TestKeyFrequency pins the per-key frequency of a transposed batch: the
// transpose interns keys in arrival order, and KeyCounts counts rows per
// key.
func TestKeyFrequency(t *testing.T) {
	b := makeBatch("x", "y", "x", "x")
	var in sliceInterner
	var cb ColumnBatch
	if err := cb.Transpose(b.Tuples, &in); err != nil {
		t.Fatal(err)
	}
	keys := in.keys
	if len(keys) != 2 || keys[0] != "x" || keys[1] != "y" {
		t.Fatalf("keys interned %v, want arrival order [x y]", keys)
	}
	m := cb.KeyCounts(func(id uint32) string { return keys[id] })
	if len(m) != 2 || m["x"] != 3 || m["y"] != 1 {
		t.Errorf("KeyCounts = %v, want x=3 y=1", m)
	}
}

// TestAppendRowsRejectsWideWeight pins the transpose's weight check: a
// weight outside int32 fails the whole batch before anything is interned
// or appended, instead of being narrowed.
func TestAppendRowsRejectsWideWeight(t *testing.T) {
	rows := []Tuple{NewTuple(0, "a", 1), {TS: 1, Key: "b", Val: 1, Weight: 1 << 31}}
	interned := 0
	var cb ColumnBatch
	err := cb.AppendRows(rows, func(string) uint32 { interned++; return 0 })
	if !errors.Is(err, ErrWeightOverflow) {
		t.Fatalf("AppendRows = %v, want ErrWeightOverflow", err)
	}
	if interned != 0 || cb.Len() != 0 {
		t.Errorf("rejected batch interned %d keys and appended %d rows", interned, cb.Len())
	}
	// The same through Transpose, onto a batch already holding a row: the
	// rejected rows leave every column as it was.
	var in sliceInterner
	if err := cb.Transpose(rows[:1], &in); err != nil {
		t.Fatal(err)
	}
	in.asked = 0
	if err := cb.Transpose(rows, &in); !errors.Is(err, ErrWeightOverflow) {
		t.Fatalf("Transpose = %v, want ErrWeightOverflow", err)
	}
	if in.asked != 0 || cb.Len() != 1 || len(cb.TS) != 1 || len(cb.Vals) != 1 || len(cb.W) != 1 {
		t.Errorf("rejected batch interned %d keys and left columns %d/%d/%d/%d long, want 1",
			in.asked, len(cb.IDs), len(cb.TS), len(cb.Vals), len(cb.W))
	}
	if err := CheckWeight(-1 << 31); err != nil {
		t.Errorf("CheckWeight(MinInt32) = %v, want nil", err)
	}
}
