package approx

import (
	"fmt"
	"math"
	"sort"

	"prompt/internal/hashutil"
)

// Item is one sampled key with its accumulated window mass.
type Item struct {
	Key string
	Val float64
}

// sampleItem carries the merge priority alongside the visible item. pri
// is the raw hash for the bottom-k kinds and the hash behind u for the
// priority kind; it is always recomputable from (key, seed, salt), which
// keeps the codec free of redundant bytes.
type sampleItem struct {
	Item
	pri uint64
}

// Sample is a deterministic bounded sample of the window's keys. Three
// flavors share the container:
//
//   - reservoir: keep the k keys with the smallest Seeded(key, seed) —
//     a coordinated bottom-k sample, uniform over the key universe and
//     identical across shards because the "randomness" is the hash.
//   - chain: same bottom-k rule but the hash is salted with the batch
//     end, so each slide re-draws and the sample rotates with the window.
//   - priority: keep the k keys with the largest val/u priority, where
//     u ∈ (0,1] derives from the key hash — Duffield-style weight-biased
//     sampling that favors heavy keys.
//
// Merging unions by key (values add, bottom-k priorities keep the
// minimum) and re-trims, so shard partials and window partials combine
// associatively up to the canonical trim.
type Sample struct {
	kind  Kind
	k     int
	seed  uint64
	salt  uint64
	items map[string]*sampleItem
}

// NewSample returns an empty sample. salt differentiates per-batch hash
// draws for the chain kind and must be zero for the other kinds.
func NewSample(kind Kind, k int, seed, salt uint64) *Sample {
	return &Sample{kind: kind, k: k, seed: seed, salt: salt, items: make(map[string]*sampleItem)}
}

// pri computes the key's merge priority under this sample's hash draw.
func (s *Sample) pri(key string) uint64 {
	return hashutil.Seeded(key, s.seed^(s.salt*0x9e3779b97f4a7c15))
}

// uniform maps a hash to (0, 1], the u behind the priority kind.
func uniform(h uint64) float64 {
	u := float64(h>>11) / float64(uint64(1)<<53)
	if u == 0 {
		return 1.0 / float64(uint64(1)<<53)
	}
	return u
}

// priority is the Duffield priority val/u of one item.
func (it *sampleItem) priority() float64 { return it.Val / uniform(it.pri) }

// Offer folds one key observation into the sample.
func (s *Sample) Offer(key string, val float64) {
	if it, ok := s.items[key]; ok {
		it.Val += val
		return
	}
	s.items[key] = &sampleItem{Item: Item{Key: key, Val: val}, pri: s.pri(key)}
	if len(s.items) > 2*s.k {
		s.trim()
	}
}

// Trim drops items beyond the budget under the kind's keep rule.
func (s *Sample) Trim() { s.trim() }

func (s *Sample) trim() {
	if len(s.items) <= s.k {
		return
	}
	ranked := make([]*sampleItem, 0, len(s.items))
	for _, it := range s.items {
		ranked = append(ranked, it)
	}
	if s.kind == PriorityKind {
		sort.Slice(ranked, func(i, j int) bool {
			return ssLess(ranked[i].Key, ranked[i].priority(), ranked[j].Key, ranked[j].priority())
		})
	} else {
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].pri != ranked[j].pri {
				return ranked[i].pri < ranked[j].pri
			}
			return ranked[i].Key < ranked[j].Key
		})
	}
	for _, it := range ranked[s.k:] {
		delete(s.items, it.Key)
	}
}

// MergeSample combines two samples into a new one with a's kind, budget,
// and seed. Items sharing a key add their values; bottom-k priorities
// keep the minimum (the coordinated-sample union rule), and the result
// is re-trimmed to the budget.
func MergeSample(a, b *Sample) (*Sample, error) {
	if a.kind != b.kind || a.k != b.k || a.seed != b.seed {
		return nil, fmt.Errorf("approx: merging %s/%d samples with mismatched parameters", a.kind, a.k)
	}
	out := NewSample(a.kind, a.k, a.seed, 0)
	for _, src := range []*Sample{a, b} {
		for _, it := range src.items {
			cur, ok := out.items[it.Key]
			if !ok {
				cp := *it
				out.items[it.Key] = &cp
				continue
			}
			cur.Val += it.Val
			if it.pri < cur.pri {
				cur.pri = it.pri
			}
		}
	}
	out.trim()
	return out, nil
}

// Len is the current sample size.
func (s *Sample) Len() int { return len(s.items) }

// Estimate returns the key's sampled mass (zero when unsampled).
func (s *Sample) Estimate(key string) float64 {
	if it, ok := s.items[key]; ok {
		return it.Val
	}
	return 0
}

// TopK returns the k heaviest sampled items (value desc, key asc).
func (s *Sample) TopK(k int) []Entry {
	s.trim()
	out := make([]Entry, 0, len(s.items))
	for _, it := range s.items {
		out = append(out, Entry{Key: it.Key, Val: it.Val})
	}
	sort.Slice(out, func(i, j int) bool { return ssLess(out[i].Key, out[i].Val, out[j].Key, out[j].Val) })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Distinct estimates the distinct keys seen. A saturated bottom-k sample
// uses the classic (k−1)·2^64 / kth-smallest-hash estimator; otherwise
// the sample holds every key it saw and the count is exact.
func (s *Sample) Distinct() float64 {
	s.trim()
	if s.kind == PriorityKind || len(s.items) < s.k {
		return float64(len(s.items))
	}
	var kth uint64
	for _, it := range s.items {
		if it.pri > kth {
			kth = it.pri
		}
	}
	if kth == 0 {
		return float64(len(s.items))
	}
	return float64(s.k-1) * math.Ldexp(1, 64) / float64(kth)
}

// Items returns the sampled items in canonical (key asc) order.
func (s *Sample) Items() []Item {
	s.trim()
	out := make([]Item, 0, len(s.items))
	for _, it := range s.items {
		out = append(out, it.Item)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Bytes approximates the in-memory footprint.
func (s *Sample) Bytes() int {
	n := 64
	for k := range s.items {
		n += len(k) + 40
	}
	return n
}
