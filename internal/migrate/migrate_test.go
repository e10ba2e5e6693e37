package migrate

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"prompt/internal/intern"
	"prompt/internal/tuple"
	"prompt/internal/window"
)

func TestOwnerIsTotalAndStable(t *testing.T) {
	for owners := 1; owners <= 8; owners++ {
		for s := 0; s < NumSlots; s++ {
			o := Owner(s, owners)
			if o < 0 || o >= owners {
				t.Fatalf("Owner(%d, %d) = %d out of range", s, owners, o)
			}
		}
	}
	if Owner(5, 0) != Owner(5, 1) {
		t.Fatalf("owners<1 must behave as a single owner")
	}
}

func TestPlanMovesOnlyChangedSlots(t *testing.T) {
	for from := 1; from <= 4; from++ {
		for to := 1; to <= 4; to++ {
			plan := Plan(from, to)
			moved := make(map[int]bool)
			for _, h := range plan {
				if h.From == h.To {
					t.Fatalf("Plan(%d,%d) contains no-op handoff %+v", from, to, h)
				}
				if h.From != Owner(h.Slot, from) || h.To != Owner(h.Slot, to) {
					t.Fatalf("Plan(%d,%d) handoff %+v disagrees with Owner", from, to, h)
				}
				moved[h.Slot] = true
			}
			for s := 0; s < NumSlots; s++ {
				changed := Owner(s, from) != Owner(s, to)
				if changed != moved[s] {
					t.Fatalf("Plan(%d,%d): slot %d changed=%v moved=%v", from, to, s, changed, moved[s])
				}
			}
			if from == to && len(plan) != 0 {
				t.Fatalf("Plan(%d,%d) must be empty, got %d handoffs", from, to, len(plan))
			}
		}
	}
}

// keysInSlot returns distinct keys hashing to the given slot (and one that
// does not), so extraction tests can target a slot deterministically.
func keysInSlot(t *testing.T, slot, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if intern.SlotOf(k) == slot {
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d keys in slot %d", n, slot)
	}
	return out
}

// retained returns the aggregator's retained batch outputs as one
// string-keyed map per batch, oldest first, read back through the slot
// exports — the per-batch view of the window, not just its folded answer.
func retained(ag *window.Aggregator) []map[string]float64 {
	out := make([]map[string]float64, ag.Batches())
	for i := range out {
		out[i] = map[string]float64{}
	}
	for slot := 0; slot < NumSlots; slot++ {
		st := ag.ExportSlot(slot)
		for bi, b := range st.Batches {
			for j, ref := range b.Refs {
				out[bi][ag.Dict().Resolve(st.IDs[ref])] = b.Vals[j]
			}
		}
	}
	return out
}

func newAgg(t *testing.T, inverse window.ReduceFn) *window.Aggregator {
	t.Helper()
	ag, err := window.NewAggregator(window.Sliding(3*tuple.Second, tuple.Second), window.Sum, inverse)
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

// TestExtractApplyRoundTrip extracts a slot's keys, round-trips the image
// through the codec, applies it back, and demands bit-identical snapshots —
// for both the invertible (Sum) and no-inverse (Max) maintenance paths.
func TestExtractApplyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reduce  window.ReduceFn
		inverse window.ReduceFn
	}{
		{"sum-inverse", window.Sum, window.SumInverse},
		{"max-no-inverse", window.Max, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slot := 7
			keys := keysInSlot(t, slot, 3)
			other := keysInSlot(t, (slot+1)%NumSlots, 2)

			mk := func() *window.Aggregator {
				ag, err := window.NewAggregator(window.Sliding(3*tuple.Second, tuple.Second), tc.reduce, tc.inverse)
				if err != nil {
					t.Fatal(err)
				}
				return ag
			}
			ag, ref := mk(), mk()
			dict := intern.NewDict(0)
			for _, k := range append(append([]string{}, keys...), other...) {
				dict.Intern(k)
			}
			for b := 1; b <= 4; b++ {
				m := map[string]float64{}
				for i, k := range keys {
					// Mid-window: not every key appears in every batch.
					if (b+i)%2 == 0 {
						m[k] = float64(b * (i + 1))
					}
				}
				for i, k := range other {
					m[k] = float64(b + i)
				}
				end := tuple.Time(b) * tuple.Second
				if err := ag.AddBatch(end, m); err != nil {
					t.Fatal(err)
				}
				if err := ref.AddBatch(end, m); err != nil {
					t.Fatal(err)
				}
			}

			img := Extract(slot, 4, 1, 2, []*window.Aggregator{ag}, dict)
			if img.Keys() == 0 {
				t.Fatalf("expected keys extracted from slot %d", slot)
			}
			for _, k := range keys {
				if _, ok := ag.Value(k); ok {
					t.Fatalf("key %q still present after extraction", k)
				}
			}
			for _, k := range other {
				if _, ok := ag.Value(k); !ok {
					t.Fatalf("unrelated key %q lost by extraction", k)
				}
			}

			enc := img.Encode()
			dec, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(img, dec) {
				t.Fatalf("image round trip mismatch:\n  %+v\n  %+v", img, dec)
			}
			if !bytes.Equal(enc, dec.Encode()) {
				t.Fatalf("re-encoding decoded image produced different bytes")
			}
			if Digest(enc) != Digest(dec.Encode()) {
				t.Fatalf("digest mismatch across round trip")
			}

			if err := Apply(dec, []*window.Aggregator{ag}, dict); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if got, want := ag.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("post-migration snapshot mismatch:\n  got  %v\n  want %v", got, want)
			}
			if got, want := retained(ag), retained(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("post-migration batch state mismatch:\n  got  %v\n  want %v", got, want)
			}
		})
	}
}

// TestExtractEmptySlot: migrating a slot none of the live keys hash to must
// produce a keyless image that still applies cleanly.
func TestExtractEmptySlot(t *testing.T) {
	ag := newAgg(t, window.SumInverse)
	dict := intern.NewDict(0)
	slot := 9
	other := keysInSlot(t, (slot+1)%NumSlots, 2)
	m := map[string]float64{}
	for i, k := range other {
		dict.Intern(k)
		m[k] = float64(i + 1)
	}
	if err := ag.AddBatch(tuple.Second, m); err != nil {
		t.Fatal(err)
	}
	before := ag.Snapshot()

	img := Extract(slot, 1, 1, 2, []*window.Aggregator{ag}, dict)
	if img.Keys() != 0 {
		t.Fatalf("expected empty image, got %d keys", img.Keys())
	}
	dec, err := Decode(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(dec, []*window.Aggregator{ag}, dict); err != nil {
		t.Fatal(err)
	}
	if got := ag.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Fatalf("empty migration changed the window: %v vs %v", got, before)
	}
}

// TestApplyOntoFreshOwner: the recipient starts with an empty dictionary and
// aggregators whose batch list matches the donor's Ends but has no matching
// keys — the fresh-owner shape of a scale-up.
func TestApplyOntoFreshOwner(t *testing.T) {
	slot := 3
	keys := keysInSlot(t, slot, 2)
	donor, recipient := newAgg(t, window.SumInverse), newAgg(t, window.SumInverse)
	donorDict, recDict := intern.NewDict(0), intern.NewDict(0)
	for _, k := range keys {
		donorDict.Intern(k)
	}
	for b := 1; b <= 3; b++ {
		m := map[string]float64{keys[0]: float64(b), keys[1]: float64(2 * b)}
		end := tuple.Time(b) * tuple.Second
		if err := donor.AddBatch(end, m); err != nil {
			t.Fatal(err)
		}
		// Recipient saw the same batch boundaries but none of these keys.
		if err := recipient.AddBatch(end, map[string]float64{}); err != nil {
			t.Fatal(err)
		}
	}
	want := donor.Snapshot()
	img := Extract(slot, 3, 1, 2, []*window.Aggregator{donor}, donorDict)
	dec, err := Decode(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(dec, []*window.Aggregator{recipient}, recDict); err != nil {
		t.Fatal(err)
	}
	if got := recipient.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh owner snapshot mismatch: got %v want %v", got, want)
	}
	// IDs are dictionary-local (a fresh append-only dict cannot adopt the
	// donor's numbering) — what matters is that every migrated key is now
	// interned on the recipient.
	for _, k := range keys {
		if _, ok := recDict.Lookup(k); !ok {
			t.Fatalf("key %q not interned on recipient", k)
		}
	}
	// A decoded image's keys are substrings of one copy of its key table;
	// the append-only dictionaries must hold their own copies, or every
	// image with one unknown key would pin its whole table for good.
	for _, d := range dec.Dict {
		id, _ := recDict.Lookup(d.Key)
		own, _ := recipient.Dict().Lookup(d.Key)
		for _, held := range []string{recDict.Resolve(id), recipient.Dict().Resolve(own)} {
			if unsafe.StringData(held) == unsafe.StringData(d.Key) {
				t.Fatalf("key %q interned as a substring of the image's table", d.Key)
			}
		}
	}
}

// TestApplyRejectsCorruptImages: Apply validates before it mutates. Every
// rejected image — including ones whose first batches or first query are
// fine — must leave the recipient's windows exactly as they were, and the
// windows must keep working (add, evict, incremental == recomputed)
// afterwards.
func TestApplyRejectsCorruptImages(t *testing.T) {
	const slot = 1
	in := keysInSlot(t, slot, 2)
	elsewhere := keysInSlot(t, slot+1, 2)
	sec := tuple.Second
	batch := func(end tuple.Time, refs []uint32, vals ...float64) window.SlotBatch {
		return window.SlotBatch{End: end, Refs: refs, Vals: vals}
	}
	// The recipient's dictionary holds elsewhere[0] as ID 0 (see below), so
	// a donor that shares its numbering issued 1 and 2 next.
	table := []DictSlot{{ID: 1, Key: in[0]}, {ID: 2, Key: in[1]}}
	good := []window.SlotBatch{batch(sec, []uint32{0, 1}, 1, 2), batch(2*sec, []uint32{0}, 3)}

	for _, tc := range []struct {
		name string
		img  *Image
	}{
		{"query out of range", &Image{Slot: slot, Queries: []QueryImage{{Query: 5}}}},
		{"negative query", &Image{Slot: slot, Queries: []QueryImage{{Query: -1}}}},
		{"slot out of range", &Image{Slot: NumSlots, Dict: table, Queries: []QueryImage{{Query: 0, Batches: good}}}},
		{"query without a window", &Image{Slot: slot, Dict: table, Queries: []QueryImage{{Query: 2, Batches: good}}}},
		{"dict reference out of range", &Image{Slot: slot, Dict: table[:1],
			Queries: []QueryImage{{Query: 0, Batches: []window.SlotBatch{batch(sec, []uint32{3}, 1), batch(2*sec, nil)}}}}},
		{"dict id disagrees with the recipient", &Image{Slot: slot, Dict: []DictSlot{{ID: 7, Key: elsewhere[0]}},
			Queries: []QueryImage{{Query: 0, Batches: []window.SlotBatch{batch(sec, nil), batch(2*sec, nil)}}}}},
		{"too few batches", &Image{Slot: slot, Dict: table, Queries: []QueryImage{{Query: 0, Batches: good[:1]}}}},
		{"second batch misaligned", &Image{Slot: slot, Dict: table,
			Queries: []QueryImage{{Query: 0, Batches: []window.SlotBatch{good[0], batch(3*sec, []uint32{0}, 3)}}}}},
		{"key twice in the second batch", &Image{Slot: slot, Dict: table,
			Queries: []QueryImage{{Query: 0, Batches: []window.SlotBatch{good[0], batch(2*sec, []uint32{1, 1}, 3, 4)}}}}},
		{"key twice in the table", &Image{Slot: slot, Dict: []DictSlot{table[0], table[0]},
			Queries: []QueryImage{{Query: 0, Batches: good}}}},
		{"columns of unequal length", &Image{Slot: slot, Dict: table,
			Queries: []QueryImage{{Query: 0, Batches: []window.SlotBatch{good[0], batch(2*sec, []uint32{0, 1}, 3)}}}}},
		{"key of another slot", &Image{Slot: slot, Dict: []DictSlot{{ID: 0, Key: "stranger-" + elsewhere[1]}},
			Queries: []QueryImage{{Query: 0, Batches: []window.SlotBatch{batch(sec, []uint32{0}, 1), batch(2*sec, nil)}}}}},
		{"second query misaligned after a good first", &Image{Slot: slot, Dict: table,
			Queries: []QueryImage{{Query: 0, Batches: good}, {Query: 1, Batches: good[:1]}}}},
		{"slot already owned here", &Image{Slot: slot + 1, Dict: []DictSlot{{ID: 0, Key: elsewhere[1]}},
			Queries: []QueryImage{{Query: 0, Batches: []window.SlotBatch{batch(sec, []uint32{0}, 1), batch(2*sec, nil)}}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "key of another slot" && intern.SlotOf(tc.img.Dict[0].Key) == slot {
				t.Skip("the stranger key happens to hash to the slot")
			}
			// Two windowed queries and a windowless one, sharing a dictionary
			// that already holds a key of another slot — which the windows hold
			// live, so "unchanged" is not vacuous.
			dict := intern.NewDict(0)
			aggs := make([]*window.Aggregator, 3)
			for i := range aggs[:2] {
				ag, err := window.NewAggregatorDict(window.Sliding(3*sec, sec), window.Sum, window.SumInverse, dict)
				if err != nil {
					t.Fatal(err)
				}
				for b := 1; b <= 2; b++ {
					if err := ag.AddBatch(tuple.Time(b)*sec, map[string]float64{elsewhere[0]: float64(b)}); err != nil {
						t.Fatal(err)
					}
				}
				aggs[i] = ag
			}
			type view struct{ snap, recomputed map[string]float64 }
			look := func() []view {
				var out []view
				for _, ag := range aggs[:2] {
					out = append(out, view{ag.Snapshot(), ag.Recompute()})
				}
				return out
			}
			before := look()
			if err := Apply(tc.img, aggs, dict); err == nil {
				t.Fatalf("Apply accepted corrupt image %+v", tc.img)
			}
			if after := look(); !reflect.DeepEqual(after, before) {
				t.Fatalf("rejected image changed the windows:\n  before %v\n  after  %v", before, after)
			}
			// The windows must still take the good image, then slide past
			// everything they hold with incremental and recomputed state in
			// step.
			ok := &Image{Slot: slot, Dict: table, Queries: []QueryImage{{Query: 0, Batches: good}, {Query: 1, Batches: good}}}
			if err := Apply(ok, aggs, dict); err != nil {
				t.Fatalf("Apply of a good image after the rejected one: %v", err)
			}
			for b := 3; b <= 6; b++ {
				for qi, ag := range aggs[:2] {
					if err := ag.AddBatch(tuple.Time(b)*sec, map[string]float64{in[0]: 1}); err != nil {
						t.Fatal(err)
					}
					if snap, rec := ag.Snapshot(), ag.Recompute(); !reflect.DeepEqual(snap, rec) {
						t.Fatalf("query %d, batch %d: incremental %v, recomputed %v", qi, b, snap, rec)
					}
				}
			}
			if got, want := aggs[0].Snapshot(), map[string]float64{in[0]: 3}; !reflect.DeepEqual(got, want) {
				t.Fatalf("window after sliding past the applied state = %v, want %v", got, want)
			}
		})
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	img := &Image{
		Slot: 5, Epoch: 2, From: 1, To: 2,
		Dict: []DictSlot{{ID: 1, Key: "alpha"}, {ID: 2, Key: "beta"}},
		Queries: []QueryImage{{Query: 0, Batches: []window.SlotBatch{
			{End: tuple.Second, Refs: []uint32{0, 1}, Vals: []float64{1.5, -2}},
		}}},
	}
	enc := img.Encode()
	for i := 0; i < len(enc); i++ {
		if _, err := Decode(enc[:i]); err == nil {
			t.Fatalf("Decode accepted truncation at %d/%d bytes", i, len(enc))
		}
	}
	if _, err := Decode(append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatalf("Decode accepted trailing bytes")
	}
	bad := append([]byte{}, enc...)
	bad[0] = 99
	if _, err := Decode(bad); err == nil {
		t.Fatalf("Decode accepted unknown version")
	}
}

// FuzzImage throws mutated encodings at Decode: it must never panic, and
// everything it accepts must re-encode canonically. What Decode accepts is
// what a checkpoint restore and a hand-off feed to Apply, so Apply must
// turn any of it into state or an error, never a panic.
func FuzzImage(f *testing.F) {
	img := &Image{
		Slot: 5, Epoch: 2, From: 1, To: 2,
		Dict: []DictSlot{{ID: 1, Key: "alpha"}},
		Queries: []QueryImage{{Query: 0, Batches: []window.SlotBatch{
			{End: tuple.Second, Refs: []uint32{0}, Vals: []float64{1.5}},
		}}},
	}
	f.Add(img.Encode())
	f.Add([]byte{imageVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		dec, err := Decode(b)
		if err != nil {
			return
		}
		re := dec.Encode()
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted non-canonical encoding:\n  in  %x\n  out %x", b, re)
		}
		ag, err := window.NewAggregator(window.Sliding(3*tuple.Second, tuple.Second), window.Sum, window.SumInverse)
		if err != nil {
			t.Fatal(err)
		}
		if err := ag.AddBatch(tuple.Second, nil); err != nil {
			t.Fatal(err)
		}
		if err := Apply(dec, []*window.Aggregator{ag, nil}, intern.NewDict(0)); err == nil {
			if snap, rec := ag.Snapshot(), ag.Recompute(); len(snap) != len(rec) {
				t.Fatalf("applied image left %d keys live, %d retained", len(snap), len(rec))
			}
		}
	})
}
