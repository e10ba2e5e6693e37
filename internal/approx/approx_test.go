package approx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"prompt/internal/codec"
	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// zipfBatch builds a skewed per-key result map: key i gets mass
// proportional to 1/(i+1), scaled so the heaviest key has mass `top`.
func zipfBatch(keys int, top float64) map[string]float64 {
	out := make(map[string]float64, keys)
	for i := 0; i < keys; i++ {
		out["k"+strconv.Itoa(i)] = math.Floor(top / float64(i+1))
	}
	return out
}

func TestSpecDefaultsAndValidate(t *testing.T) {
	var zero Spec
	if zero.Enabled() {
		t.Fatal("zero spec must be disabled")
	}
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero spec must validate: %v", err)
	}
	d := Spec{Kind: CountMinKind}.WithDefaults()
	if d.K != 32 || d.Depth != 4 || d.Width != 2048 || d.Precision != 12 || d.Seed != 1 {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	if err := (Spec{Kind: "nope"}).Validate(); err == nil {
		t.Fatal("unknown kind must fail validation")
	}
	if err := (Spec{Kind: CountMinKind, Width: 4}).Validate(); err == nil {
		t.Fatal("tiny width must fail validation")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(string(k))
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("exact"); err == nil {
		t.Fatal("ParseKind must reject unknown names")
	}
}

// TestCountMinBounds checks the one-sided guarantee on a skewed batch:
// every estimate is at least the true mass and within the advertised
// ε·N overestimation bound.
func TestCountMinBounds(t *testing.T) {
	c := NewCountMin(4, 2048, 1)
	batch := zipfBatch(500, 1e6)
	var total float64
	for _, k := range sortedKeys(batch) {
		c.Add(k, batch[k])
		total += batch[k]
	}
	if c.Total() != total {
		t.Fatalf("total %v, want %v", c.Total(), total)
	}
	bound := c.ErrorBound()
	for k, v := range batch {
		est := c.Estimate(k)
		if est < v {
			t.Fatalf("key %s: estimate %v below true %v", k, est, v)
		}
		if est > v+bound {
			t.Errorf("key %s: estimate %v exceeds true %v + bound %v", k, est, v, bound)
		}
	}
}

// TestCountMinLinearity checks Merge/Sub cell-wise linearity with
// integral masses: (A+B)−A == B exactly.
func TestCountMinLinearity(t *testing.T) {
	a := NewCountMin(4, 256, 7)
	b := NewCountMin(4, 256, 7)
	for i := 0; i < 100; i++ {
		a.Add("a"+strconv.Itoa(i), float64(i+1))
		b.Add("b"+strconv.Itoa(i), float64(2*i+1))
	}
	sum := NewCountMin(4, 256, 7)
	if err := sum.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := sum.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := sum.Sub(a); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum.rows, b.rows) || sum.Total() != b.Total() {
		t.Fatal("merge-then-sub did not recover the other sketch")
	}
	if err := sum.Merge(NewCountMin(4, 128, 7)); err == nil {
		t.Fatal("mismatched geometry must not merge")
	}
}

// TestSpaceSavingGuarantee checks the per-entry sandwich
// est − err ≤ true ≤ est on a stream that overflows the budget, and that
// untracked keys stay below the offset.
func TestSpaceSavingGuarantee(t *testing.T) {
	s := NewSpaceSaving(8)
	batch := zipfBatch(64, 1000)
	for _, k := range rankedKeys(batch) {
		s.Offer(k, batch[k])
	}
	entries := s.Entries()
	if len(entries) != 8 {
		t.Fatalf("tracked %d entries, want 8", len(entries))
	}
	for _, e := range entries {
		v := batch[e.Key]
		if e.Est < v {
			t.Errorf("key %s: est %v below true %v", e.Key, e.Est, v)
		}
		if e.Est-e.Err > v {
			t.Errorf("key %s: est %v − err %v exceeds true %v", e.Key, e.Est, e.Err, v)
		}
	}
	off := s.Offset()
	for k, v := range batch {
		if s.Estimate(k) == off && v > off {
			// Only untracked keys may fall back to the offset.
			if _, tracked := s.counts[k]; !tracked {
				t.Errorf("untracked key %s: true %v exceeds offset %v", k, v, off)
			}
		}
	}
}

// TestSpaceSavingMerge checks the merged summary keeps the sandwich
// bound against the exact union of two disjoint-ish streams.
func TestSpaceSavingMerge(t *testing.T) {
	a, b := NewSpaceSaving(8), NewSpaceSaving(8)
	left := zipfBatch(40, 900)
	right := make(map[string]float64)
	for i := 0; i < 40; i++ {
		right["k"+strconv.Itoa(i+20)] = math.Floor(700 / float64(i+1))
	}
	for _, m := range []struct {
		s     *SpaceSaving
		batch map[string]float64
	}{{a, left}, {b, right}} {
		for _, k := range rankedKeys(m.batch) {
			m.s.Offer(k, m.batch[k])
		}
	}
	exact := make(map[string]float64)
	for k, v := range left {
		exact[k] += v
	}
	for k, v := range right {
		exact[k] += v
	}
	merged := MergeSpaceSaving(a, b)
	if len(merged.counts) > 8 {
		t.Fatalf("merged summary tracks %d keys, budget 8", len(merged.counts))
	}
	for _, e := range merged.Entries() {
		v := exact[e.Key]
		if e.Est < v || e.Est-e.Err > v {
			t.Errorf("merged key %s: est %v err %v vs true %v", e.Key, e.Est, e.Err, v)
		}
	}
	off := merged.Offset()
	for k, v := range exact {
		if _, tracked := merged.counts[k]; !tracked && v > off {
			t.Errorf("merged untracked key %s: true %v exceeds offset %v", k, v, off)
		}
	}
}

// TestHLLAccuracy checks the distinct estimate stays inside the
// advertised three-sigma bound across cardinality regimes, and that
// merge equals one pass over the union.
func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 50000} {
		h := NewHLL(12, 1)
		for i := 0; i < n; i++ {
			h.Add("key-" + strconv.Itoa(i))
		}
		est := h.Estimate()
		if math.Abs(est-float64(n)) > h.ErrorBound() {
			t.Errorf("n=%d: estimate %.1f outside bound %.1f", n, est, h.ErrorBound())
		}
	}
	a, b, u := NewHLL(10, 3), NewHLL(10, 3), NewHLL(10, 3)
	for i := 0; i < 3000; i++ {
		k := "key-" + strconv.Itoa(i)
		if i%2 == 0 {
			a.Add(k)
		}
		if i%3 == 0 {
			b.Add(k)
		}
		if i%2 == 0 || i%3 == 0 {
			u.Add(k)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.regs, u.regs) {
		t.Fatal("merged registers differ from the union's")
	}
}

// TestSampleDeterminismAndMerge checks offer-order independence and the
// union rule of each sampler kind.
func TestSampleDeterminismAndMerge(t *testing.T) {
	batch := zipfBatch(100, 5000)
	keys := sortedKeys(batch)
	for _, kind := range []Kind{ReservoirKind, ChainKind, PriorityKind} {
		t.Run(string(kind), func(t *testing.T) {
			build := func(perm []string) *Sample {
				s := NewSample(kind, 16, 9, 42)
				for _, k := range perm {
					s.Offer(k, batch[k])
				}
				s.Trim()
				return s
			}
			shuffled := append([]string(nil), keys...)
			rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			a, b := build(keys), build(shuffled)
			if !reflect.DeepEqual(a.Items(), b.Items()) {
				t.Fatal("sample depends on offer order")
			}
			if a.Len() != 16 {
				t.Fatalf("sample holds %d items, want 16", a.Len())
			}
			merged, err := MergeSample(a, b)
			if err != nil {
				t.Fatal(err)
			}
			// a == b, so the union doubles every value and re-trims to
			// the same key set.
			wantKeys := a.Items()
			gotKeys := merged.Items()
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("merged %d items, want %d", len(gotKeys), len(wantKeys))
			}
			for i := range wantKeys {
				if gotKeys[i].Key != wantKeys[i].Key || gotKeys[i].Val != 2*wantKeys[i].Val {
					t.Fatalf("merged item %d = %+v, want doubled %+v", i, gotKeys[i], wantKeys[i])
				}
			}
		})
	}
}

// TestSampleDistinct checks the bottom-k distinct estimator lands within
// 15% on a 100k-key universe.
func TestSampleDistinct(t *testing.T) {
	s := NewSample(ReservoirKind, 256, 5, 0)
	const n = 100000
	for i := 0; i < n; i++ {
		s.Offer("key-"+strconv.Itoa(i), 1)
	}
	s.Trim()
	est := s.Distinct()
	if math.Abs(est-n)/n > 0.15 {
		t.Fatalf("distinct estimate %.0f vs %d", est, n)
	}
}

// TestEstimatorWindowEviction checks the windowed shell tracks the exact
// sliding window: after the window slides past a batch, its mass is gone
// from the merged summary.
func TestEstimatorWindowEviction(t *testing.T) {
	e, err := NewEstimator(Spec{Kind: CountMinKind}, 2*tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddBatch(1*tuple.Second, map[string]float64{"a": 10}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddBatch(2*tuple.Second, map[string]float64{"a": 5, "b": 7}); err != nil {
		t.Fatal(err)
	}
	if got := e.Estimate("a"); got != 15 {
		t.Fatalf("window estimate for a = %v, want 15", got)
	}
	// Batch ending at 1s leaves the window at end 3s (cutoff 3−2 = 1).
	if err := e.AddBatch(3*tuple.Second, map[string]float64{"b": 1}); err != nil {
		t.Fatal(err)
	}
	if got := e.Estimate("a"); got != 5 {
		t.Fatalf("after eviction, estimate for a = %v, want 5", got)
	}
	if got := e.Estimate("b"); got != 8 {
		t.Fatalf("after eviction, estimate for b = %v, want 8", got)
	}
	if err := e.AddBatch(2*tuple.Second, nil); err == nil {
		t.Fatal("regressing batch end must fail")
	}
}

// TestEstimatorCodecRoundTrip checks Encode/Decode reproduces the state
// bit-identically for every kind — including the merged summary, which
// Decode rebuilds by replaying the fold.
func TestEstimatorCodecRoundTrip(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			e, err := NewEstimator(Spec{Kind: kind, K: 12, Depth: 3, Width: 64, Precision: 8, Seed: 77}, 3*tuple.Second)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 5; i++ {
				batch := make(map[string]float64)
				for j := 0; j < 40; j++ {
					batch[fmt.Sprintf("k%d", (i*7+j)%60)] = float64(j%9 + 1)
				}
				if err := e.AddBatch(tuple.Time(i)*tuple.Second, batch); err != nil {
					t.Fatal(err)
				}
			}
			img := e.Encode()
			d, err := Decode(img)
			if err != nil {
				t.Fatal(err)
			}
			if d.Spec() != e.Spec() || d.Window() != e.Window() {
				t.Fatalf("decoded spec %+v win %v, want %+v win %v", d.Spec(), d.Window(), e.Spec(), e.Window())
			}
			if !bytes.Equal(d.Encode(), img) {
				t.Fatal("re-encoded image differs")
			}
			if d.Estimate("k3") != e.Estimate("k3") || d.Distinct() != e.Distinct() ||
				d.ErrorBound() != e.ErrorBound() || !reflect.DeepEqual(d.TopK(10), e.TopK(10)) {
				t.Fatal("decoded estimator answers differ")
			}
			// The decoded estimator must keep evolving identically.
			next := map[string]float64{"k1": 3, "zz": 8}
			if err := e.AddBatch(6*tuple.Second, next); err != nil {
				t.Fatal(err)
			}
			if err := d.AddBatch(6*tuple.Second, next); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.Encode(), e.Encode()) {
				t.Fatal("post-restore evolution diverged")
			}
		})
	}
}

// TestDecodeRejectsMalformedImages spot-checks the codec's guards.
func TestDecodeRejectsMalformedImages(t *testing.T) {
	e, err := NewEstimator(Spec{Kind: SpaceSavingKind}, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddBatch(tuple.Second, map[string]float64{"a": 1, "b": 2}); err != nil {
		t.Fatal(err)
	}
	img := e.Encode()
	cases := map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{99}, img[1:]...),
		"truncated":   img[:len(img)-3],
		"trailing":    append(append([]byte(nil), img...), 0xFF),
	}
	for name, bad := range cases {
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s image decoded successfully", name)
		}
	}
	// A length bomb: claim 2^40 partials in a tiny image.
	bomb := []byte{codecVersion}
	bomb = codec.AppendString(bomb, string(CountMinKind))
	for _, v := range []uint64{32, 4, 2048, 12, 1} {
		bomb = binary.AppendUvarint(bomb, v)
	}
	bomb = binary.AppendVarint(bomb, int64(tuple.Second))
	bomb = binary.AppendUvarint(bomb, 1<<40)
	if _, err := Decode(bomb); err == nil {
		t.Fatal("length-bomb image decoded successfully")
	}
}

// rankedKeys returns a batch's keys in the Space-Saving offer order the
// estimator uses.
func rankedKeys(batch map[string]float64) []string {
	keys := sortedKeys(batch)
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = batch[k]
	}
	out := make([]string, len(keys))
	for i, j := range rankOrder(vals) {
		out[i] = keys[j]
	}
	return out
}

// TestEstimatorColumnsMatchMap pins the approximate tier's canonical
// fold: for every kind, AddColumns with the IDs in shuffled order must
// encode to the same bytes as AddBatch over the same result as a map,
// batch after batch, on keys that share 8- and 16-byte prefixes, differ
// in trailing NULs, are empty or hold bytes >= 0x80, and were interned
// out of key order.
func TestEstimatorColumnsMatchMap(t *testing.T) {
	const p8, p16 = "abcdefgh", "abcdefghijklmnop"
	var keys []string
	for _, stem := range []string{"", "\x00", "ab", "ab\x00", "\x80", "\xff", p8, p8 + "\x00", p16, p16 + "\x80"} {
		for _, suffix := range []string{"", "\x00", "\x00\x00", "a", "\x80", "\xff\x00", "k12345678"} {
			if k := stem + suffix; !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	rng := rand.New(rand.NewSource(9))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	dict := intern.NewDict(0)
	for _, k := range keys {
		dict.Intern(k)
	}
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			spec := Spec{Kind: kind, K: 12, Depth: 3, Width: 64, Precision: 8, Seed: 77}
			cols, err := NewEstimator(spec, 3*tuple.Second)
			if err != nil {
				t.Fatal(err)
			}
			byMap, _ := NewEstimator(spec, 3*tuple.Second)
			for b := 1; b <= 8; b++ {
				perm := rng.Perm(len(keys))[:1+rng.Intn(len(keys))]
				ids := make([]uint32, len(perm))
				vals := make([]float64, len(perm))
				result := make(map[string]float64, len(perm))
				for i, j := range perm {
					// Values tie, and their sums round differently in another order.
					ids[i], vals[i] = uint32(j), []float64{1, 2, 0.1, 0.7, 1e16, 3}[rng.Intn(6)]
					result[keys[j]] = vals[i]
				}
				end := tuple.Time(b) * tuple.Second
				if err := cols.AddColumns(end, dict, ids, vals); err != nil {
					t.Fatal(err)
				}
				if err := byMap.AddBatch(end, result); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cols.Encode(), byMap.Encode()) {
					t.Fatalf("batch %d (%d keys): AddColumns image differs from AddBatch's", b, len(ids))
				}
			}
		})
	}
}

// TestRankOrderMatchesSSLess checks Space-Saving's offer order, a stable
// sort by value over ascending keys, against ssLess's (value desc, key
// asc) on tied and NaN values.
func TestRankOrderMatchesSSLess(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		keys := make([]string, rng.Intn(50))
		vals := make([]float64, len(keys))
		for i := range keys {
			keys[i] = fmt.Sprintf("k%03d", i)
			vals[i] = []float64{1, 2, 3, math.NaN(), math.Inf(-1), 0}[rng.Intn(6)]
		}
		want := make([]int, len(keys))
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			return ssLess(keys[a], vals[a], keys[b], vals[b])
		})
		if got := rankOrder(vals); !slices.Equal(got, want) {
			t.Fatalf("rankOrder %v, want %v", got, want)
		}
	}
}
