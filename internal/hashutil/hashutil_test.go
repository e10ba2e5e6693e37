package hashutil

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	if Hash("hello") != Hash("hello") {
		t.Error("Hash is not deterministic")
	}
	if Hash("hello") == Hash("hellp") {
		t.Error("adjacent strings collide (suspicious)")
	}
}

func TestSeededIndependence(t *testing.T) {
	// Different seeds must produce different hash functions.
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("key%d", i)
		if Seeded(s, 1)%16 == Seeded(s, 2)%16 {
			same++
		}
	}
	// Two independent functions agree mod 16 about 1/16 of the time;
	// allow generous slack.
	if same > n/4 {
		t.Errorf("seeds 1 and 2 agree on %d/%d buckets; not independent", same, n)
	}
}

func TestBucketRange(t *testing.T) {
	err := quick.Check(func(s string) bool {
		b := Bucket(s, 7)
		return b >= 0 && b < 7
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSeededBucketRange(t *testing.T) {
	err := quick.Check(func(s string, seed uint64) bool {
		b := SeededBucket(s, seed, 13)
		return b >= 0 && b < 13
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestBucketDistribution(t *testing.T) {
	const n, buckets = 100000, 16
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[Bucket(fmt.Sprintf("key-%d", i), buckets)]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d has %d keys, want about %d", b, c, want)
		}
	}
}

func TestAppendCandidates(t *testing.T) {
	c := AppendCandidates(nil, "foo", 5, 64)
	if len(c) != 5 {
		t.Fatalf("got %d candidates, want 5", len(c))
	}
	for _, idx := range c {
		if idx < 0 || idx >= 64 {
			t.Errorf("candidate %d out of range", idx)
		}
	}
	// Deterministic, and appended after what dst holds.
	c2 := AppendCandidates([]int{-1}, "foo", 5, 64)
	if len(c2) != 6 || c2[0] != -1 {
		t.Fatalf("AppendCandidates overwrote dst: %v", c2)
	}
	for i := range c {
		if c[i] != c2[i+1] {
			t.Error("AppendCandidates not deterministic")
		}
	}
	// With 64 buckets and 5 draws, at least two distinct candidates is
	// overwhelmingly likely for any reasonable hash.
	distinct := map[int]bool{}
	for _, idx := range c {
		distinct[idx] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all 5 candidates identical: %v", c)
	}
}
