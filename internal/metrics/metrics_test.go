package metrics

import (
	"testing"

	"prompt/internal/tuple"
)

// blockOf builds a block with the given per-key sizes.
func blockOf(id int, keys map[string]int) *tuple.Block {
	bl := tuple.NewBlock(id)
	for k, n := range keys {
		addRun(bl, k, n)
	}
	return bl
}

// addRun appends one key run of n unit-weight tuples to bl, under the
// key's ID in a test-wide numbering (one ID per distinct key, as a
// dictionary gives; Block.Cardinality counts IDs).
func addRun(bl *tuple.Block, key string, n int) {
	var c tuple.ColSlice
	for i := 0; i < n; i++ {
		c = c.Append(tuple.Time(i), 1, 1)
	}
	bl.AddDenseCols(key, keyID(key), c, n)
}

var keyIDs = map[string]uint32{}

// keyID returns key's ID in the test-wide numbering, issuing the next one
// on first sight.
func keyID(key string) uint32 {
	id, ok := keyIDs[key]
	if !ok {
		id = uint32(len(keyIDs))
		keyIDs[key] = id
	}
	return id
}

func TestBSI(t *testing.T) {
	blocks := []*tuple.Block{
		blockOf(0, map[string]int{"a": 10}),
		blockOf(1, map[string]int{"b": 20}),
		blockOf(2, map[string]int{"c": 30}),
	}
	// max 30, avg 20 -> BSI 10.
	if got := BSI(blocks); got != 10 {
		t.Errorf("BSI = %v, want 10", got)
	}
	if got := BSI(nil); got != 0 {
		t.Errorf("BSI(nil) = %v, want 0", got)
	}
}

func TestBSIBalanced(t *testing.T) {
	blocks := []*tuple.Block{
		blockOf(0, map[string]int{"a": 10}),
		blockOf(1, map[string]int{"b": 10}),
	}
	if got := BSI(blocks); got != 0 {
		t.Errorf("BSI of balanced blocks = %v, want 0", got)
	}
}

func TestBSISizes(t *testing.T) {
	if got := BSISizes([]int{4, 4, 10, 2}); got != 5 {
		t.Errorf("BSISizes = %v, want 5", got)
	}
	if got := BSISizes(nil); got != 0 {
		t.Errorf("BSISizes(nil) = %v", got)
	}
}

func TestBCI(t *testing.T) {
	blocks := []*tuple.Block{
		blockOf(0, map[string]int{"a": 1, "b": 1, "c": 1, "d": 1}), // card 4
		blockOf(1, map[string]int{"e": 4}),                         // card 1
	}
	// max 4, avg 2.5 -> 1.5.
	if got := BCI(blocks); got != 1.5 {
		t.Errorf("BCI = %v, want 1.5", got)
	}
}

func TestKSRNoSplits(t *testing.T) {
	blocks := []*tuple.Block{
		blockOf(0, map[string]int{"a": 5, "b": 3}),
		blockOf(1, map[string]int{"c": 8}),
	}
	if got := KSR(blocks); got != 1 {
		t.Errorf("KSR = %v, want 1", got)
	}
}

func TestKSRWithSplits(t *testing.T) {
	blocks := []*tuple.Block{
		blockOf(0, map[string]int{"a": 5, "b": 3}),
		blockOf(1, map[string]int{"a": 5, "c": 8}),
		blockOf(2, map[string]int{"a": 2}),
	}
	// a has 3 fragments, b and c one each: 5 fragments / 3 keys.
	want := 5.0 / 3.0
	if got := KSR(blocks); got != want {
		t.Errorf("KSR = %v, want %v", got, want)
	}
	if got := KSR(nil); got != 1 {
		t.Errorf("KSR(nil) = %v, want 1", got)
	}
}

func TestKSRCountsSameBlockFragmentsOnce(t *testing.T) {
	bl := tuple.NewBlock(0)
	addRun(bl, "a", 1)
	addRun(bl, "a", 1)
	if got := KSR([]*tuple.Block{bl}); got != 1 {
		t.Errorf("KSR with same-block fragments = %v, want 1", got)
	}
}

func TestKSRWithKeysMatchesKSR(t *testing.T) {
	blocks := []*tuple.Block{
		blockOf(0, map[string]int{"a": 5, "b": 3}),
		blockOf(1, map[string]int{"a": 5, "c": 8}),
		blockOf(2, map[string]int{"a": 2}),
	}
	if got, want := KSRWithKeys(blocks, 3), KSR(blocks); got != want {
		t.Errorf("KSRWithKeys = %v, KSR = %v", got, want)
	}
	if got := KSRWithKeys(nil, 0); got != 1 {
		t.Errorf("KSRWithKeys(nil, 0) = %v", got)
	}
	ew := EvaluateWithKeys(blocks, EqualWeights, 3)
	full := Evaluate(blocks, EqualWeights)
	if ew != full {
		t.Errorf("EvaluateWithKeys = %+v, Evaluate = %+v", ew, full)
	}
}

func TestWeightsValidate(t *testing.T) {
	if err := EqualWeights.Validate(); err != nil {
		t.Errorf("EqualWeights invalid: %v", err)
	}
	if err := (Weights{P1: 0.5, P2: 0.2, P3: 0.2}).Validate(); err == nil {
		t.Error("accepted weights summing to 0.9")
	}
	if err := (Weights{P1: -0.5, P2: 1, P3: 0.5}).Validate(); err == nil {
		t.Error("accepted negative weight")
	}
}

func TestEvaluateShuffleVsHashExtremes(t *testing.T) {
	// Shuffle-like: perfect sizes, every key split everywhere.
	shuffle := []*tuple.Block{
		blockOf(0, map[string]int{"a": 5, "b": 5}),
		blockOf(1, map[string]int{"a": 5, "b": 5}),
	}
	// Hash-like: perfect locality, bad sizes.
	hash := []*tuple.Block{
		blockOf(0, map[string]int{"a": 18}),
		blockOf(1, map[string]int{"b": 2}),
	}
	rs := Evaluate(shuffle, EqualWeights)
	rh := Evaluate(hash, EqualWeights)
	if rs.BSI != 0 || rs.KSR != 2 {
		t.Errorf("shuffle-like: BSI=%v KSR=%v", rs.BSI, rs.KSR)
	}
	if rh.KSR != 1 || rh.BSI != 8 {
		t.Errorf("hash-like: BSI=%v KSR=%v", rh.BSI, rh.KSR)
	}
	if rs.MPI <= 0 || rh.MPI <= 0 {
		t.Errorf("MPI should be positive for imbalanced assignments: %v %v", rs.MPI, rh.MPI)
	}
	// p1=1 scores shuffle perfectly; p3=1 scores hash perfectly.
	if got := Evaluate(shuffle, Weights{P1: 1}); got.MPI != 0 {
		t.Errorf("shuffle under p1=1 has MPI %v, want 0", got.MPI)
	}
	if got := Evaluate(hash, Weights{P3: 1}); got.MPI != 0 {
		t.Errorf("hash under p3=1 has MPI %v, want 0", got.MPI)
	}
}

func TestRelativeMetrics(t *testing.T) {
	balanced := []*tuple.Block{
		blockOf(0, map[string]int{"a": 10}),
		blockOf(1, map[string]int{"b": 10}),
	}
	skewed := []*tuple.Block{
		blockOf(0, map[string]int{"a": 18}),
		blockOf(1, map[string]int{"b": 2}),
	}
	if got := RelativeBSI(balanced, skewed); got != 0 {
		t.Errorf("RelativeBSI(balanced, skewed) = %v, want 0", got)
	}
	if got := RelativeBSI(skewed, skewed); got != 1 {
		t.Errorf("RelativeBSI(self) = %v, want 1", got)
	}
	if got := RelativeBSI(skewed, balanced); got != 0 {
		t.Errorf("RelativeBSI with zero baseline = %v, want 0", got)
	}
}

func TestCostModelValidate(t *testing.T) {
	if err := DefaultCostModel().Validate(); err != nil {
		t.Errorf("default cost model invalid: %v", err)
	}
	bad := DefaultCostModel()
	bad.MapPerTuple = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero per-tuple cost")
	}
}

func TestCostModelMonotone(t *testing.T) {
	c := DefaultCostModel()
	if c.MapTaskTime(2000, 10) <= c.MapTaskTime(1000, 10) {
		t.Error("MapTaskTime not monotone in size")
	}
	if c.MapTaskTime(1000, 100) < c.MapTaskTime(1000, 10) {
		t.Error("MapTaskTime not monotone in cardinality")
	}
	if c.ReduceTaskTime(2000, 0) <= c.ReduceTaskTime(1000, 0) {
		t.Error("ReduceTaskTime not monotone in size")
	}
	if c.ReduceTaskTime(1000, 10) <= c.ReduceTaskTime(1000, 0) {
		t.Error("ReduceTaskTime not monotone in fragments")
	}
	if c.ReduceTaskTime(1000, -5) != c.ReduceTaskTime(1000, 0) {
		t.Error("negative fragments not clamped")
	}
}

func TestStageTime(t *testing.T) {
	m := []tuple.Time{3, 9, 5}
	r := []tuple.Time{2, 4}
	if got := StageTime(m, r); got != 13 {
		t.Errorf("StageTime = %v, want 13", got)
	}
	if got := StageTime(nil, nil); got != 0 {
		t.Errorf("StageTime(nil) = %v", got)
	}
}
