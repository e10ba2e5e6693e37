package intern

import (
	"fmt"
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
// the key on every path that adds a key (Intern, InternSlot, FromSnapshot),
// and a Strings view taken earlier keeps reading the same keys while the
// dictionary grows past it.
func TestSlotCacheAndStringsView(t *testing.T) {
	d := NewDict(0)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		var id uint32
		if i%2 == 0 {
			id = d.Intern(key)
		} else {
			var slot int
			if id, slot = d.InternSlot(key); slot != SlotOf(key) {
				t.Fatalf("InternSlot(%q) slot = %d, want %d", key, slot, SlotOf(key))
			}
		}
		if got := d.Slot(id); got != SlotOf(key) || got < 0 || got >= Slots {
			t.Fatalf("Slot(%d) = %d, want SlotOf(%q) = %d", id, got, key, SlotOf(key))
		}
		if _, slot := d.InternSlot(key); slot != SlotOf(key) {
			t.Fatalf("re-interning %q gave slot %d", key, slot)
		}
	}
	view := d.Strings()
	restored, err := FromSnapshot(d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 2000; i++ {
		d.Intern(fmt.Sprintf("key-%d", i)) // forces the backing arrays to move
	}
	if len(view) != 300 {
		t.Fatalf("view grew to %d keys", len(view))
	}
	for id, key := range view {
		if key != d.Resolve(uint32(id)) {
			t.Fatalf("view[%d] = %q, dictionary says %q", id, key, d.Resolve(uint32(id)))
		}
		if restored.Slot(uint32(id)) != SlotOf(key) {
			t.Fatalf("restored dictionary caches slot %d for %q, want %d", restored.Slot(uint32(id)), key, SlotOf(key))
		}
	}
}
