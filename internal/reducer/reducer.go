// Package reducer implements the processing-phase partitioning (Problem
// II, Reduce-Input Partitioning): how each Map task assigns its output key
// clusters to Reduce buckets. It provides the conventional hashing assigner
// and Prompt's Reduce Bucket Allocator (Algorithm 3), a heuristic for the
// Balanced Bin Packing with Variable Capacity (B-BPVC) problem.
package reducer

import (
	"fmt"
	"sync"

	"prompt/internal/hashutil"
	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// Assigner decides, for one Map task, which Reduce bucket receives each of
// the task's output key clusters. Implementations must be purely local —
// deterministic given the clusters and the block reference table — because
// Map tasks share no information (the paper's "no inter-task communication"
// requirement). Key locality across Map tasks is guaranteed by routing
// split keys with the same hash function everywhere.
type Assigner interface {
	// Name identifies the technique.
	Name() string
	// Assign returns the bucket index (0..r-1) for each cluster, aligned
	// with the clusters slice. taskID identifies the Map task (its block
	// id); implementations may use it to decorrelate their local
	// decisions across tasks, but must route any split key identically
	// regardless of taskID. ref is the Map task's block reference table.
	Assign(taskID int, clusters []tuple.Cluster, ref map[string]tuple.SplitInfo, r int) ([]int, error)
}

func checkArgs(r int) error {
	if r <= 0 {
		return fmt.Errorf("reducer: need r > 0 buckets, got %d", r)
	}
	return nil
}

// HashAssigner is the conventional approach (Figure 8a): every cluster is
// routed by hashing its key, regardless of cluster sizes. Key locality is
// trivially global, but skewed clusters produce unbalanced bucket sizes.
type HashAssigner struct{}

// NewHash returns the hashing assigner.
func NewHash() *HashAssigner { return &HashAssigner{} }

// Name implements Assigner.
func (*HashAssigner) Name() string { return "hash" }

// Assign implements Assigner.
func (*HashAssigner) Assign(_ int, clusters []tuple.Cluster, _ map[string]tuple.SplitInfo, r int) ([]int, error) {
	if err := checkArgs(r); err != nil {
		return nil, err
	}
	out := make([]int, len(clusters))
	for i := range clusters {
		out[i] = hashutil.Bucket(clusters[i].Key, r)
	}
	return out, nil
}

// PromptAllocator implements Algorithm 3 (Reduce Bucket Allocator). Split
// keys are assigned by hashing so all their fragments meet at one Reduce
// task without coordination. Non-split clusters are sorted by size
// descending and placed Worst-Fit — into the candidate bucket with the most
// remaining capacity — with the chosen bucket leaving the candidate set
// until every bucket has received a cluster (rotation). Rotation bounds
// bucket overflow while promoting a balanced number of clusters per bucket.
//
// Ties in remaining capacity are broken in a bucket order rotated by the
// Map task's id. Every task starts from empty local loads, so a fixed
// tie-break would send every task's largest cluster to the same bucket;
// the rotation decorrelates the tasks' local decisions, which is what
// makes the per-task imbalances cancel additively instead of stacking.
type PromptAllocator struct {
	// NoRotation disables the remove-until-all-served candidate rotation,
	// degenerating to plain Worst-Fit. Exposed for the ablation
	// benchmarks that quantify what the rotation buys.
	NoRotation bool
}

// NewPrompt returns Prompt's reduce bucket allocator.
func NewPrompt() *PromptAllocator { return &PromptAllocator{} }

// Name implements Assigner.
func (p *PromptAllocator) Name() string {
	if p.NoRotation {
		return "prompt-norotation"
	}
	return "prompt"
}

// assignScratch is the per-call working memory of PromptAllocator.Assign,
// pooled because Map tasks call Assign once per block per batch and the
// slices' sizes repeat batch after batch. The returned assignment slice is
// never pooled — it escapes to the shuffle.
type assignScratch struct {
	load      []int
	nonSplit  intern.Sorter // non-split clusters, Idx the cluster index
	available []bool
}

var assignScratchPool = sync.Pool{New: func() any { return new(assignScratch) }}

func (s *assignScratch) reset(r int) {
	if cap(s.load) < r {
		s.load = make([]int, r)
		s.available = make([]bool, r)
	}
	s.load = s.load[:r]
	s.available = s.available[:r]
	for i := 0; i < r; i++ {
		s.load[i] = 0
	}
	s.nonSplit.Items = s.nonSplit.Items[:0]
}

// Assign implements Assigner.
func (p *PromptAllocator) Assign(taskID int, clusters []tuple.Cluster, ref map[string]tuple.SplitInfo, r int) ([]int, error) {
	if err := checkArgs(r); err != nil {
		return nil, err
	}
	offset := taskID % r
	if offset < 0 {
		offset += r
	}
	out := make([]int, len(clusters))
	total := 0
	for i := range clusters {
		total += clusters[i].Size
	}
	bucketSize := total / r
	if total%r != 0 {
		bucketSize++
	}

	scratch := assignScratchPool.Get().(*assignScratch)
	defer assignScratchPool.Put(scratch)
	scratch.reset(r)
	load := scratch.load

	// Step 1: split keys route by hashing; their load is charged up front
	// so the residual capacities below reflect it.
	items := scratch.nonSplit.Items
	for i := range clusters {
		c := &clusters[i]
		info, ok := ref[c.Key]
		if ok && info.Split {
			b := hashutil.Bucket(c.Key, r)
			out[i] = b
			load[b] += c.Size
		} else {
			items = append(items, intern.Item{Hi: ^uint64(c.Size), Prefix: intern.KeyPrefix(c.Key), Idx: int32(i)})
		}
	}
	scratch.nonSplit.Items = items

	// Step 2: sort non-split clusters by size descending (key ascending as
	// tie-break for determinism).
	nonSplit := scratch.nonSplit.Sort(func(i int32) string { return clusters[i].Key })

	// Step 3: Worst-Fit with rotation. available marks candidate buckets;
	// once a bucket takes a cluster it waits until all others have too.
	available := scratch.available
	resetAvail := func() {
		for i := range available {
			available[i] = true
		}
	}
	resetAvail()
	remaining := r
	for _, it := range nonSplit {
		ci := it.Idx
		// Worst fit among available buckets: max residual capacity
		// (bucketSize - load); ties broken by the task-rotated order.
		best, bestRoom := -1, 0
		for i := 0; i < r; i++ {
			b := (offset + i) % r
			if !available[b] {
				continue
			}
			room := bucketSize - load[b]
			if best == -1 || room > bestRoom {
				best, bestRoom = b, room
			}
		}
		out[ci] = best
		load[best] += clusters[ci].Size
		if p.NoRotation {
			continue
		}
		available[best] = false
		remaining--
		if remaining == 0 {
			resetAvail()
			remaining = r
		}
	}
	return out, nil
}
