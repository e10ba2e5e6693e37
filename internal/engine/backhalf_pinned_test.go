package engine_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"prompt/internal/approx"
	"prompt/internal/core"
	"prompt/internal/dist"
	"prompt/internal/engine"
	"prompt/internal/transport"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// pinnedShape is a scaled-down bench workload: the key universe and skew
// of the original, fewer tuples per batch.
type pinnedShape struct {
	name   string
	keys   int
	zipf   float64 // 0 draws keys uniformly
	tuples int
	sum    bool        // SlidingSum over fractional payloads instead of WordCount
	depth  int         // pipeline depth (the cluster shape runs at 2)
	approx approx.Kind // approximate tier folded from the exact results
	churn  bool        // a mid-run checkpoint and two rescales
}

var pinnedShapes = []pinnedShape{
	{name: "zipf-hot", keys: 20_000, zipf: 1.0, tuples: 2_000, approx: approx.SpaceSavingKind},
	{name: "uniform-wide", keys: 200_000, tuples: 2_000, sum: true, approx: approx.HLLKind},
	{name: "cluster-uds", keys: 20_000, zipf: 1.0, tuples: 2_000, depth: 2, approx: approx.PriorityKind},
	{name: "state-churn", keys: 30_000, zipf: 0.8, tuples: 2_000, sum: true, approx: approx.CountMinKind, churn: true},
}

const (
	pinnedBatches  = 12
	pinnedInterval = 100 * tuple.Millisecond
)

// backHalfDigests are the SHA-256 digests of everything downstream of
// Algorithm 2 — every batch result, the window answer, the approximate
// answers and the final checkpoint image — per shape and scheme. They were
// recorded from the string-keyed shuffle and fold; every execution mode
// must reproduce them bit for bit.
var backHalfDigests = map[string]string{
	"zipf-hot/time":        "09cb3ea5f348ed0ff2d142a6b7904695cba6dcbcf272c6d5151fde85a14d30f4",
	"zipf-hot/shuffle":     "61ae490fdf8d125553cd96578fca5091ece08acd0ef147944d577496b3998af3",
	"zipf-hot/hash":        "20f1c4b674b1ad2d797e49dbac5f5af5de1db501254e3aa40f46ca15ab98c057",
	"zipf-hot/pk2":         "751a10bcffcc6e15376f9b191f25d86372fb2029377ea9b7bb7962dd232d5fca",
	"zipf-hot/pk5":         "b69e065f9d4e0a42a7e3630ca19aa764a0a1f659ffea6c9b796c90090c99c960",
	"zipf-hot/cam":         "4db37c65e7a6d709b7cb947012be9fee6098f8579e80e56076b703184f38a834",
	"zipf-hot/ffd":         "967687e0d42443ec990b37468c37e2eac329c029f3b75700437d1a4e17563b79",
	"zipf-hot/fragmin":     "78c105f11c4f8cade24248cfd4083a9ce9dca6241c72f55fae3b32118b0dfd05",
	"zipf-hot/prompt":      "997a15460e655d472d578e2c82a546ca1852e763d4c5100598ac95e78546c1d0",
	"uniform-wide/time":    "1ae7ea399a83223c6a531e09cbe44ea416e8f24dc6eaf4be885541b51cb717e7",
	"uniform-wide/shuffle": "c36c945227b43adfcbc892ffa5f4bc69a4cceff99b08b47bef63b16ab87cc53b",
	"uniform-wide/hash":    "10ca76a6f18d8cf74fa37119cd3ce82fa4c115c2ddcea29775f3a38fcb09aafd",
	"uniform-wide/pk2":     "9f7ad054e48b6d7fe6062311b8a05cee4eec859861b39dca5549b5dad614c7dc",
	"uniform-wide/pk5":     "413a9bc2f50d4e447e1b87001cceba7df5f38b1d04c24adf1898636c79d8ed65",
	"uniform-wide/cam":     "e894142113f19ccbac9701a9c969b88eb58018526ffa6b7fbdc864d3538c27b1",
	"uniform-wide/ffd":     "9af8d4284fd16a4d62fb8bca502d738696c0e7520ff7c46b2abf235d3ae6e15c",
	"uniform-wide/fragmin": "9af8d4284fd16a4d62fb8bca502d738696c0e7520ff7c46b2abf235d3ae6e15c",
	"uniform-wide/prompt":  "fca0df3736d8298f3599a6082ede2f7ad5a0c96cb7ead2cdc42402e9ac0f999f",
	"cluster-uds/time":     "bfe5876b694e8f5bdc7e4b726d54253aae6e281b6de88cb2cf861523b023fe6b",
	"cluster-uds/shuffle":  "fdd047b01aad21c398c2f990351e1430d42685c846f07fe4c686bdd3bcce1cdb",
	"cluster-uds/hash":     "0f954019e849c7932d74b4ee0a40c96edc0580d197d05508643d9d99d25e01f4",
	"cluster-uds/pk2":      "dc19888f7fd676757c2b2451694e0cc8d511f85e13d9910197f77334e75e27a8",
	"cluster-uds/pk5":      "035e5164c7bc86b53d6d95dd35e429057c8947ac3e30b99777974b469e927981",
	"cluster-uds/cam":      "f2355f5789c28cfd917bf030547b0be58c0a6bff5747ef88592b5978406116b9",
	"cluster-uds/ffd":      "5ce7491e29d744b9e5bba854bff9bf6bd0da69f446863cbc90ce769bffd644fc",
	"cluster-uds/fragmin":  "083c1c4d96c3c31e7e40b8e7e741dcc501d33263bc1b4f8a2b7c5bdacc4bf0e4",
	"cluster-uds/prompt":   "576af26dabe2f5911d974a55b364d84010edf2bd08c69e7fd13377c1a7a0a485",
	"state-churn/time":     "8eeb3b46f529155943633929e281adc23392854f463552448c6566163ac8e18f",
	"state-churn/shuffle":  "25a5a2ae3c42b416d6a9c371ef1e8931e518e64f0b8ebfddb18a5a5bddb25b73",
	"state-churn/hash":     "52a4b37a2b33d7cbeb389bd986f6e4270a915923bc7276ce2a9b749681507926",
	"state-churn/pk2":      "199f62311868db4d7c3f6f2015a0cbce40b470828b1a9d27f01f6f002f1606af",
	"state-churn/pk5":      "9981a47a3ba2e595a64840bb1a38792eed0a4d59a014b0c98dffcc84fb785cbb",
	"state-churn/cam":      "bf24afec81aa82719d34f111d513b5b65b532608056034002f640ce1547d24c9",
	"state-churn/ffd":      "a1afdbb03617e7e98639660673bd3096527d7cc9b545012d34195d96d1424ce7",
	"state-churn/fragmin":  "2276b3018545db8b3c4b5775ab7ed7f79e941eb8a52cfb5c8ee919afc6c2b01f",
	"state-churn/prompt":   "2908e0e7ca5bd4eb02eca26babb34b172a0b08eacabbe0e7e94a1ee15c11c167",
}

// pinnedSchemes is every partitioner in the registry.
var pinnedSchemes = []string{"time", "shuffle", "hash", "pk2", "pk5", "cam", "ffd", "fragmin", "prompt"}

// TestBackHalfPinned pins the Map→Reduce→window back half bit for bit
// over the bench shapes, every partitioning scheme, and three execution
// modes: the inline driver, the worker pool, and two shards over the
// loopback transport.
func TestBackHalfPinned(t *testing.T) {
	restore := engine.StubClock(func() time.Time { return time.Unix(1_700_000_000, 0) })
	defer restore()
	missing := false
	for _, sh := range pinnedShapes {
		batches := pinnedBatchesOf(t, sh)
		for _, scheme := range pinnedSchemes {
			id := sh.name + "/" + scheme
			want, ok := backHalfDigests[id]
			for _, mode := range []string{"inline", "workers4", "shards2"} {
				got := pinnedRun(t, sh, scheme, mode, batches)
				switch {
				case !ok:
					if mode == "inline" {
						t.Logf("%q: %q,", id, got)
						want, ok = got, true
						missing = true
					} else if got != want {
						t.Errorf("%s: %s digest %s differs from inline %s", id, mode, got, want)
					}
				case got != want:
					t.Errorf("%s (%s): back-half digest %s, pinned %s", id, mode, got, want)
				}
			}
		}
	}
	if missing {
		t.Error("digests missing from backHalfDigests; the logged lines record them")
	}
}

// pinnedBatchesOf generates the shape's seeded input.
func pinnedBatchesOf(t *testing.T, sh pinnedShape) [][]tuple.Tuple {
	t.Helper()
	var keys workload.KeySampler
	var err error
	if sh.zipf > 0 {
		keys, err = workload.NewZipfSampler("k", sh.keys, sh.zipf)
	} else {
		keys, err = workload.NewUniformSampler("k", sh.keys)
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(len(sh.name)) * 7919))
	out := make([][]tuple.Tuple, pinnedBatches)
	for b := range out {
		start := tuple.Time(b) * pinnedInterval
		ts := make([]tuple.Tuple, sh.tuples)
		for i := range ts {
			at := start + tuple.Time(i)*pinnedInterval/tuple.Time(sh.tuples)
			ts[i] = tuple.NewTuple(at, keys.Next(rng, at), rng.Float64()*100)
		}
		out[b] = ts
	}
	return out
}

// pinnedStream replays materialized batches for the pipelined driver.
type pinnedStream struct{ batches [][]tuple.Tuple }

func (s pinnedStream) Slice(start, end tuple.Time) ([]tuple.Tuple, error) {
	i := int(start / pinnedInterval)
	if i < 0 || i >= len(s.batches) {
		return nil, fmt.Errorf("replay slice [%d, %d) outside the run", start, end)
	}
	return s.batches[i], nil
}

func (pinnedStream) Reset() {}

// pinnedRun runs one (shape, scheme, mode) and returns its digest.
func pinnedRun(t *testing.T, sh pinnedShape, scheme, mode string, batches [][]tuple.Tuple) string {
	t.Helper()
	sc, err := core.ByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Apply(engine.Config{
		BatchInterval: pinnedInterval,
		MapTasks:      8,
		ReduceTasks:   8,
		Cores:         8,
		PipelineDepth: sh.depth,
		Approx:        approx.Spec{Kind: sh.approx},
	})
	if mode == "workers4" {
		cfg.Workers = 4
	}
	win := window.Sliding(6*pinnedInterval, pinnedInterval)
	q := engine.WordCount(win)
	if sh.sum {
		q = engine.SumQuery("sum", win)
	}
	eng, err := engine.New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	if mode == "shards2" {
		queries := []engine.Query{q}
		tr := transport.NewLoopback(dist.NewShard(0, queries), dist.NewShard(1, queries))
		coord, err := dist.NewCoordinator(tr, cfg.BatchInterval, queries)
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		eng.SetExecutor(coord)
	}

	h := sha256.New()
	checkpoint := func() {
		var buf bytes.Buffer
		if err := eng.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		pinBytes(h, buf.Bytes())
	}
	if sh.depth > 1 {
		if _, err := eng.RunBatches(pinnedStream{batches}, len(batches)); err != nil {
			t.Fatal(err)
		}
		// The pipelined driver commits every batch before returning; only
		// the last result is observable afterwards.
		pinMap(h, eng.LastResultOf(0))
	} else {
		for i, ts := range batches {
			start := tuple.Time(i) * pinnedInterval
			if _, err := eng.Step(ts, start, start+pinnedInterval); err != nil {
				t.Fatalf("%s/%s/%s batch %d: %v", sh.name, scheme, mode, i, err)
			}
			pinMap(h, eng.LastResultOf(0))
			if sh.churn {
				switch i {
				case 4:
					checkpoint()
					if err := eng.Rescale(3); err != nil {
						t.Fatal(err)
					}
				case 8:
					if err := eng.Rescale(1); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	snap := eng.WindowSnapshot()
	pinMap(h, snap)
	est := eng.ApproxState()
	pinFloat(h, est.ErrorBound())
	pinFloat(h, float64(est.Bytes()))
	pinFloat(h, est.Distinct())
	for _, e := range est.TopK(20) {
		pinBytes(h, []byte(e.Key))
		pinFloat(h, e.Val)
		pinFloat(h, e.Err)
	}
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys[:min(50, len(keys))] {
		pinFloat(h, est.Estimate(k))
	}
	checkpoint()
	return hex.EncodeToString(h.Sum(nil))
}

// pinMap hashes a result map in ascending key order.
func pinMap(h hash.Hash, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	pinFloat(h, float64(len(keys)))
	for _, k := range keys {
		pinBytes(h, []byte(k))
		pinFloat(h, m[k])
	}
}

func pinBytes(h hash.Hash, b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

func pinFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}
