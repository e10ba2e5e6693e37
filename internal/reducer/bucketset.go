package reducer

import (
	"fmt"
	"sync"

	"prompt/internal/tuple"
)

// BucketSet accumulates the Reduce-stage input across all Map tasks of one
// micro-batch: each bucket's total size, the set of keys it holds, and the
// number of cross-Map fragments per key (which drives the per-key
// aggregation overhead in the cost model). It also enforces the key
// locality invariant — a key's clusters must land in exactly one bucket no
// matter which Map task emitted them. Keys are tracked by dictionary ID
// (tuple.Cluster.ID) in a flat array.
type BucketSet struct {
	r         int
	sizes     []int
	fragments []int    // per bucket: cluster arrivals beyond a key's first
	idBucket  []int32  // key ID -> bucket + 1 (0 = unseen)
	touched   []uint32 // IDs placed this batch, in first-placed order
}

// NewBucketSet returns an empty bucket set with r buckets.
func NewBucketSet(r int) *BucketSet {
	bs := new(BucketSet)
	bs.reset(r)
	return bs
}

var bucketSetPool = sync.Pool{New: func() any { return new(BucketSet) }}

// GetBucketSet returns a pooled bucket set reset for r buckets. Release
// returns it to the pool; the engine uses this pair so the per-batch
// shuffle bookkeeping reuses its arrays batch after batch. The slices
// returned by Sizes and ExtraFragments are only valid until Release.
func GetBucketSet(r int) *BucketSet {
	bs := bucketSetPool.Get().(*BucketSet)
	bs.reset(r)
	return bs
}

// Release returns a pooled bucket set to the pool.
func (bs *BucketSet) Release() { bucketSetPool.Put(bs) }

func (bs *BucketSet) reset(r int) {
	bs.r = r
	if cap(bs.sizes) < r {
		bs.sizes = make([]int, r)
		bs.fragments = make([]int, r)
	}
	bs.sizes = bs.sizes[:r]
	bs.fragments = bs.fragments[:r]
	for i := 0; i < r; i++ {
		bs.sizes[i] = 0
		bs.fragments[i] = 0
	}
	for _, id := range bs.touched {
		bs.idBucket[id] = 0
	}
	bs.touched = bs.touched[:0]
}

// Place records that a Map task assigned cluster c to bucket b. It returns
// an error if the bucket index is out of range or if the key was previously
// placed in a different bucket (a key-locality violation, which would make
// the computation incorrect).
func (bs *BucketSet) Place(c tuple.Cluster, b int) error {
	if b < 0 || b >= bs.r {
		return fmt.Errorf("reducer: bucket %d out of range [0,%d)", b, bs.r)
	}
	if int(c.ID) >= len(bs.idBucket) {
		grown := make([]int32, max(int(c.ID)+1, 2*len(bs.idBucket)))
		copy(grown, bs.idBucket)
		bs.idBucket = grown
	}
	switch prev := bs.idBucket[c.ID]; {
	case prev == 0:
		bs.idBucket[c.ID] = int32(b) + 1
		bs.touched = append(bs.touched, c.ID)
	case int(prev)-1 != b:
		return fmt.Errorf("reducer: key %q assigned to bucket %d and %d (locality violation)",
			c.Key, int(prev)-1, b)
	default:
		bs.fragments[b]++ // a second fragment of the key: one extra combine
	}
	bs.sizes[b] += c.Size
	return nil
}

// Sizes returns the per-bucket tuple totals (the Reduce task input sizes).
func (bs *BucketSet) Sizes() []int { return bs.sizes }

// ExtraFragments returns, per bucket, the number of cluster arrivals beyond
// each key's first — the cross-Map partial results a Reduce task must
// combine before aggregating.
func (bs *BucketSet) ExtraFragments() []int { return bs.fragments }

// Keys returns the number of distinct keys placed so far.
func (bs *BucketSet) Keys() int { return len(bs.touched) }
