package reducer

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"prompt/internal/hashutil"
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

// oracleAssign is Algorithm 3 as it was written with a comparator sort —
// size descending, then strings.Compare on the keys — kept as the oracle
// of PromptAllocator.Assign's shared key order.
func oracleAssign(noRotation bool, taskID int, clusters []tuple.Cluster, ref map[string]tuple.SplitInfo, r int) []int {
	offset := taskID % r
	out := make([]int, len(clusters))
	total := 0
	for _, c := range clusters {
		total += c.Size
	}
	bucketSize := (total + r - 1) / r
	load := make([]int, r)
	var nonSplit []int
	for i, c := range clusters {
		if ref[c.Key].Split {
			out[i] = hashutil.Bucket(c.Key, r)
			load[out[i]] += c.Size
		} else {
			nonSplit = append(nonSplit, i)
		}
	}
	slices.SortFunc(nonSplit, func(a, b int) int {
		if c := cmp.Compare(clusters[b].Size, clusters[a].Size); c != 0 {
			return c
		}
		return strings.Compare(clusters[a].Key, clusters[b].Key)
	})
	served := make([]bool, r)
	remaining := r
	for _, ci := range nonSplit {
		best := -1
		for i := 0; i < r; i++ {
			b := (offset + i) % r
			if !served[b] && (best == -1 || bucketSize-load[b] > bucketSize-load[best]) {
				best = b
			}
		}
		out[ci] = best
		load[best] += clusters[ci].Size
		if noRotation {
			continue
		}
		served[best] = true
		if remaining--; remaining == 0 {
			clear(served)
			remaining = r
		}
	}
	return out
}

// TestPromptAllocatorMatchesComparatorOracle checks Assign against its
// comparator-sorted oracle on random clusters whose sizes tie and whose
// keys share 8- and 16-byte prefixes, differ in trailing NULs, are empty
// or hold bytes >= 0x80, with and without rotation and split keys.
func TestPromptAllocatorMatchesComparatorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stems := []string{"", "\x00", "ab", "ab\x00", "\x80", "\xff", "abcdefgh", "abcdefgh\x00", "abcdefghijklmnop", "abcdefghijklmnop\x80"}
	for trial := 0; trial < 400; trial++ {
		seen := make(map[string]bool)
		var cs []tuple.Cluster
		ref := make(map[string]tuple.SplitInfo)
		for n := rng.Intn(80); len(cs) < n; { // of 100 distinct keys
			key := stems[rng.Intn(len(stems))]
			if rng.Intn(3) > 0 {
				key += string([]byte{byte(rng.Intn(3)), "a\x80\xff"[rng.Intn(3)]})
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			c := tuple.Cluster{Key: key, ID: uint32(len(cs)), Size: 1 + rng.Intn(4)}
			cs = append(cs, c)
			ref[key] = tuple.SplitInfo{Split: rng.Intn(8) == 0, TotalSize: c.Size, Fragments: 1}
		}
		r := 1 + rng.Intn(6)
		p := &PromptAllocator{NoRotation: trial%4 == 3}
		got, err := p.Assign(trial, cs, ref, r)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleAssign(p.NoRotation, trial, cs, ref, r); !slices.Equal(got, want) {
			t.Fatalf("trial %d (r=%d, %d clusters): Assign %v, oracle %v", trial, r, len(cs), got, want)
		}
	}
}
