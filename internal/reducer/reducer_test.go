package reducer

import (
	"fmt"
	"math/rand"
	"testing"

	"prompt/internal/metrics"
	"prompt/internal/tuple"
)

// clustersOf builds clusters with the given sizes, keyed c0, c1, ...
func clustersOf(sizes ...int) []tuple.Cluster {
	out := make([]tuple.Cluster, len(sizes))
	for i, s := range sizes {
		out[i] = tuple.Cluster{Key: fmt.Sprintf("c%d", i), ID: uint32(i), Size: s}
	}
	return out
}

func noSplits(clusters []tuple.Cluster) map[string]tuple.SplitInfo {
	ref := make(map[string]tuple.SplitInfo, len(clusters))
	for _, c := range clusters {
		ref[c.Key] = tuple.SplitInfo{Split: false, TotalSize: c.Size, Fragments: 1}
	}
	return ref
}

func TestAssignersRejectBadBuckets(t *testing.T) {
	cs := clustersOf(1, 2)
	for _, a := range []Assigner{NewHash(), NewPrompt()} {
		if _, err := a.Assign(0, cs, noSplits(cs), 0); err == nil {
			t.Errorf("%s accepted r=0", a.Name())
		}
	}
}

func TestHashAssignerConsistent(t *testing.T) {
	cs := clustersOf(5, 10, 15)
	a := NewHash()
	x, err := a.Assign(0, cs, noSplits(cs), 8)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := a.Assign(0, cs, noSplits(cs), 8)
	for i := range x {
		if x[i] != y[i] {
			t.Error("hash assigner not deterministic")
		}
		if x[i] < 0 || x[i] >= 8 {
			t.Errorf("bucket %d out of range", x[i])
		}
	}
}

func TestPromptAllocatorBalancesSkewedClusters(t *testing.T) {
	// One giant cluster and many small ones: worst-fit must isolate the
	// giant and spread the rest, beating hashing on bucket BSI.
	rng := rand.New(rand.NewSource(5))
	var cs []tuple.Cluster
	cs = append(cs, tuple.Cluster{Key: "hot", Size: 1000})
	for i := 0; i < 100; i++ {
		cs = append(cs, tuple.Cluster{Key: fmt.Sprintf("c%d", i), Size: 5 + rng.Intn(20)})
	}
	ref := noSplits(cs)
	const r = 8

	loadOf := func(assign []int) []int {
		load := make([]int, r)
		for i, b := range assign {
			load[b] += cs[i].Size
		}
		return load
	}
	pa, err := NewPrompt().Assign(0, cs, ref, r)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := NewHash().Assign(0, cs, ref, r)
	if err != nil {
		t.Fatal(err)
	}
	pBSI := metrics.BSISizes(loadOf(pa))
	hBSI := metrics.BSISizes(loadOf(ha))
	if pBSI >= hBSI {
		t.Errorf("prompt allocator BSI %v not better than hash %v", pBSI, hBSI)
	}
}

func TestPromptAllocatorRotationBoundsClusterCounts(t *testing.T) {
	// Equal-size clusters: rotation must deal them round-robin, so bucket
	// cluster counts differ by at most one.
	cs := clustersOf(make([]int, 50)...)
	for i := range cs {
		cs[i].Size = 10
	}
	assign, err := NewPrompt().Assign(0, cs, noSplits(cs), 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 8)
	for _, b := range assign {
		counts[b]++
	}
	minC, maxC := counts[0], counts[0]
	for _, c := range counts {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC-minC > 1 {
		t.Errorf("cluster counts %v differ by more than 1", counts)
	}
}

func TestPromptAllocatorSplitKeysUseHashing(t *testing.T) {
	// Split keys must route exactly where the hash assigner would put
	// them, so all Map tasks agree without coordination.
	cs := clustersOf(100, 50, 30)
	ref := noSplits(cs)
	ref["c0"] = tuple.SplitInfo{Split: true, TotalSize: 300, Fragments: 3}
	const r = 8
	pa, err := NewPrompt().Assign(0, cs, ref, r)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := NewHash().Assign(0, cs, ref, r)
	if err != nil {
		t.Fatal(err)
	}
	if pa[0] != ha[0] {
		t.Errorf("split key routed to %d, hash says %d", pa[0], ha[0])
	}
}

func TestPromptAllocatorDeterministic(t *testing.T) {
	cs := clustersOf(9, 9, 7, 7, 5, 5, 3, 3)
	a, _ := NewPrompt().Assign(0, cs, noSplits(cs), 4)
	b, _ := NewPrompt().Assign(0, cs, noSplits(cs), 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("prompt allocator not deterministic")
		}
	}
}

func TestBucketSetLocality(t *testing.T) {
	bs := NewBucketSet(4)
	if err := bs.Place(tuple.Cluster{Key: "a", ID: 3, Size: 5}, 1); err != nil {
		t.Fatal(err)
	}
	// Same key, same bucket: allowed, counts as an extra fragment.
	if err := bs.Place(tuple.Cluster{Key: "a", ID: 3, Size: 3}, 1); err != nil {
		t.Fatal(err)
	}
	// Same key, different bucket: locality violation.
	if err := bs.Place(tuple.Cluster{Key: "a", ID: 3, Size: 2}, 2); err == nil {
		t.Error("BucketSet accepted a key in two buckets")
	}
	if got := bs.Sizes()[1]; got != 8 {
		t.Errorf("bucket 1 size %d, want 8", got)
	}
	if got := bs.ExtraFragments()[1]; got != 1 {
		t.Errorf("bucket 1 extra fragments %d, want 1", got)
	}
	if got := bs.Keys(); got != 1 {
		t.Errorf("keys %d, want 1", got)
	}
	if err := bs.Place(tuple.Cluster{Key: "b", ID: 0, Size: 1}, 9); err == nil {
		t.Error("BucketSet accepted out-of-range bucket")
	}
}

func TestCrossMapTaskLocality(t *testing.T) {
	// Simulate two map tasks whose blocks share a split key: both must
	// land it in the same bucket via the allocator.
	shared := tuple.Cluster{Key: "split", ID: 0, Size: 40}
	ref := map[string]tuple.SplitInfo{
		"split": {Split: true, TotalSize: 80, Fragments: 2},
		"x":     {Split: false, TotalSize: 10, Fragments: 1},
		"y":     {Split: false, TotalSize: 12, Fragments: 1},
	}
	task1 := []tuple.Cluster{shared, {Key: "x", ID: 1, Size: 10}}
	task2 := []tuple.Cluster{shared, {Key: "y", ID: 2, Size: 12}}
	al := NewPrompt()
	const r = 6
	a1, err := al.Assign(0, task1, ref, r)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := al.Assign(1, task2, ref, r)
	if err != nil {
		t.Fatal(err)
	}
	if a1[0] != a2[0] {
		t.Errorf("split key landed in buckets %d and %d across map tasks", a1[0], a2[0])
	}
	bs := NewBucketSet(r)
	if err := bs.Place(task1[0], a1[0]); err != nil {
		t.Fatal(err)
	}
	if err := bs.Place(task2[0], a2[0]); err != nil {
		t.Fatalf("locality violated across map tasks: %v", err)
	}
}

func TestPromptAllocatorEmpty(t *testing.T) {
	out, err := NewPrompt().Assign(0, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("got %d assignments for no clusters", len(out))
	}
}
