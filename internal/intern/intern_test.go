package intern

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestInternAssignsDenseStableIDs(t *testing.T) {
	d := NewDict(4)
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a != 0 || b != 1 {
		t.Fatalf("first two IDs = %d, %d; want 0, 1", a, b)
	}
	if got := d.Intern("alpha"); got != a {
		t.Errorf("re-interning alpha gave %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if s := d.Resolve(b); s != "beta" {
		t.Errorf("Resolve(%d) = %q, want beta", b, s)
	}
	if id, ok := d.Lookup("beta"); !ok || id != b {
		t.Errorf("Lookup(beta) = %d,%v want %d,true", id, ok, b)
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("Lookup(gamma) found an uninterned key")
	}
}

func TestZeroValueDictIsUsable(t *testing.T) {
	var d Dict
	if id := d.Intern("x"); id != 0 {
		t.Fatalf("zero-value dict first ID = %d, want 0", id)
	}
	if d.Resolve(0) != "x" {
		t.Fatal("zero-value dict failed to resolve")
	}
}

// TestConcurrentIntern hammers one dictionary from many goroutines with
// overlapping key sets (run under -race in CI). Every goroutine must see
// one consistent ID per key, and the final dictionary must be a bijection.
func TestConcurrentIntern(t *testing.T) {
	d := NewDict(0)
	const goroutines = 8
	const keys = 500
	got := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]uint32, keys)
			for i := 0; i < keys; i++ {
				// Overlapping ranges: every key is interned by several
				// goroutines concurrently.
				ids[i] = d.Intern(fmt.Sprintf("key-%d", (i+g*7)%keys))
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()

	if d.Len() != keys {
		t.Fatalf("dict has %d keys, want %d", d.Len(), keys)
	}
	// All goroutines agree with the final table.
	for g := 0; g < goroutines; g++ {
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("key-%d", (i+g*7)%keys)
			want, ok := d.Lookup(key)
			if !ok || got[g][i] != want {
				t.Fatalf("goroutine %d saw ID %d for %s, dict says %d (ok=%v)",
					g, got[g][i], key, want, ok)
			}
		}
	}
	// IDs are a dense bijection.
	seen := make(map[uint32]bool, keys)
	for i := 0; i < keys; i++ {
		id, ok := d.Lookup(fmt.Sprintf("key-%d", i))
		if !ok || id >= keys || seen[id] {
			t.Fatalf("ID space not a dense bijection at key-%d: id=%d ok=%v dup=%v",
				i, id, ok, seen[id])
		}
		seen[id] = true
	}
}

// TestSnapshotRoundTrip checks the checkpoint property: restoring a
// snapshot reproduces every ID exactly, and interning continues from the
// next free ID.
func TestSnapshotRoundTrip(t *testing.T) {
	d := NewDict(0)
	for i := 0; i < 100; i++ {
		d.Intern(fmt.Sprintf("k%03d", i))
	}
	snap := d.Snapshot()
	r, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%03d", i)
		want, _ := d.Lookup(key)
		if got := r.Intern(key); got != want {
			t.Fatalf("restored dict interns %s to %d, original had %d", key, got, want)
		}
	}
	if id := r.Intern("fresh"); id != 100 {
		t.Fatalf("restored dict continued at ID %d, want 100", id)
	}
	if !reflect.DeepEqual(r.Snapshot()[:100], snap) {
		t.Fatal("restored snapshot diverges from original")
	}
}

func TestFromSnapshotRejectsDuplicates(t *testing.T) {
	if _, err := FromSnapshot([]string{"a", "b", "a"}); err == nil {
		t.Fatal("FromSnapshot accepted a duplicate key")
	}
}

// FuzzInternResolveIdentity asserts intern-then-resolve is the identity
// for arbitrary keys, including empty and non-UTF-8 strings.
func FuzzInternResolveIdentity(f *testing.F) {
	f.Add("hello")
	f.Add("")
	f.Add("\x00\xff")
	f.Add("key with spaces and \n newline")
	d := NewDict(0)
	f.Fuzz(func(t *testing.T, key string) {
		id := d.Intern(key)
		if got := d.Resolve(id); got != key {
			t.Fatalf("Resolve(Intern(%q)) = %q", key, got)
		}
		if again := d.Intern(key); again != id {
			t.Fatalf("second Intern(%q) = %d, first gave %d", key, again, id)
		}
	})
}

// TestSlotCacheAndStringsView: the slot cached at intern time is SlotOf of
// the key on every path that adds a key (Intern, InternBatch,
// FromSnapshot), and Strings and Slots views taken earlier keep reading
// the same entries while the dictionary grows past them.
func TestSlotCacheAndStringsView(t *testing.T) {
	d := NewDict(0)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		var id uint32
		if i%2 == 0 {
			id = d.Intern(key)
		} else {
			ids := make([]uint32, 1)
			d.InternBatch(ids, func(int) string { return key })
			id = ids[0]
		}
		if got := d.Slot(id); got != SlotOf(key) || got < 0 || got >= Slots {
			t.Fatalf("Slot(%d) = %d, want SlotOf(%q) = %d", id, got, key, SlotOf(key))
		}
		if again := d.Intern(key); again != id || d.Slot(again) != SlotOf(key) {
			t.Fatalf("re-interning %q gave ID %d slot %d", key, again, d.Slot(again))
		}
	}
	view, slots := d.Strings(), d.Slots()
	restored, err := FromSnapshot(d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 2000; i++ {
		d.Intern(fmt.Sprintf("key-%d", i)) // forces the backing arrays to move
	}
	if len(view) != 300 || len(slots) != 300 {
		t.Fatalf("views grew to %d keys and %d slots", len(view), len(slots))
	}
	for id, key := range view {
		if key != d.Resolve(uint32(id)) {
			t.Fatalf("view[%d] = %q, dictionary says %q", id, key, d.Resolve(uint32(id)))
		}
		if int(slots[id]) != SlotOf(key) {
			t.Fatalf("slots[%d] = %d, want SlotOf(%q) = %d", id, slots[id], key, SlotOf(key))
		}
		if restored.Slot(uint32(id)) != SlotOf(key) {
			t.Fatalf("restored dictionary caches slot %d for %q, want %d", restored.Slot(uint32(id)), key, SlotOf(key))
		}
	}
}

// TestInternBatchMatchesSequential is the batch interner's property test:
// on seeded batches mixing known keys, repeats, new keys and keys new
// twice within one batch, InternBatch gives every key the ID, string and
// slot that Intern, called key by key in arrival order on a twin
// dictionary, gives it.
func TestInternBatchMatchesSequential(t *testing.T) {
	// The pinned case: a known key, then two keys each new twice.
	d := NewDict(0)
	d.Intern("known")
	keys := []string{"x", "known", "y", "x", "y", "known"}
	ids := make([]uint32, len(keys))
	d.InternBatch(ids, func(i int) string { return keys[i] })
	if want := []uint32{1, 0, 2, 1, 2, 0}; !reflect.DeepEqual(ids, want) || d.Len() != 3 {
		t.Fatalf("InternBatch IDs %v (%d keys), want %v (3 keys)", ids, d.Len(), want)
	}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batchDict, seqDict := NewDict(0), NewDict(0)
		universe := 50 + rng.Intn(500)
		for b := 0; b < 12; b++ {
			n := rng.Intn(400)
			if b == 0 {
				n = 0 // an empty batch interns nothing
			}
			keys := make([]string, n)
			for i := range keys {
				// The universe widens batch by batch, so every batch holds
				// new keys, and a hot head makes repeats (and a new key
				// seen twice in one batch) common.
				k := rng.Intn(universe * (b + 1) / 12)
				if rng.Intn(3) == 0 {
					k %= 8
				}
				keys[i] = fmt.Sprintf("s%d-k%d", seed, k)
			}
			got := make([]uint32, n)
			batchDict.InternBatch(got, func(i int) string { return keys[i] })
			for i, key := range keys {
				want := seqDict.Intern(key)
				if got[i] != want {
					t.Fatalf("seed %d batch %d row %d (%q): InternBatch ID %d, Intern ID %d", seed, b, i, key, got[i], want)
				}
			}
			if batchDict.Len() != seqDict.Len() {
				t.Fatalf("seed %d batch %d: %d keys after InternBatch, %d after Intern", seed, b, batchDict.Len(), seqDict.Len())
			}
		}
		if !reflect.DeepEqual(batchDict.Strings(), seqDict.Strings()) || !reflect.DeepEqual(batchDict.Slots(), seqDict.Slots()) {
			t.Fatalf("seed %d: batch and sequential dictionaries differ", seed)
		}
	}
}

// TestInternBatchConcurrentReaders interns batches on several goroutines
// while others read through Strings, Slots, Resolve and Slot (run under
// -race in CI). Readers only ever see IDs already issued; at the end every
// batch's IDs agree with the dictionary.
func TestInternBatchConcurrentReaders(t *testing.T) {
	d := NewDict(0)
	const (
		writers = 4
		batches = 40
		batch   = 200
		keys    = 3000
	)
	results := make([][][]uint32, writers)
	inputs := make([][][]string, writers)
	stop := make(chan struct{})
	var readers, wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				strs, slots := d.Strings(), d.Slots()
				if len(slots) < len(strs) {
					t.Errorf("slots view (%d) shorter than strings view (%d)", len(slots), len(strs))
					return
				}
				if len(strs) == 0 {
					continue
				}
				id := uint32(rng.Intn(len(strs)))
				if d.Resolve(id) != strs[id] || d.Slot(id) != int(slots[id]) || int(slots[id]) != SlotOf(strs[id]) {
					t.Errorf("reader %d: ID %d reads inconsistently", r, id)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for b := 0; b < batches; b++ {
				in := make([]string, batch)
				for i := range in {
					in[i] = fmt.Sprintf("key-%d", rng.Intn(keys))
				}
				ids := make([]uint32, batch)
				d.InternBatch(ids, func(i int) string { return in[i] })
				inputs[w] = append(inputs[w], in)
				results[w] = append(results[w], ids)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	seen := make(map[uint32]string)
	for w := range results {
		for b, ids := range results[w] {
			for i, id := range ids {
				key := inputs[w][b][i]
				if want, ok := d.Lookup(key); !ok || want != id {
					t.Fatalf("writer %d batch %d row %d: ID %d for %q, dictionary says %d", w, b, i, id, key, want)
				}
				if prev, ok := seen[id]; ok && prev != key {
					t.Fatalf("ID %d issued to both %q and %q", id, prev, key)
				}
				seen[id] = key
			}
		}
	}
	if d.Len() != len(seen) {
		t.Fatalf("dictionary holds %d keys, batches saw %d", d.Len(), len(seen))
	}
}
