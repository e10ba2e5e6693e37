package intern

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// adversarialKeys are keys the prefix sort can get wrong: shared 8- and
// 16-byte prefixes, trailing NULs, the empty key and bytes >= 0x80.
func adversarialKeys() []string {
	const p8, p16 = "abcdefgh", "abcdefghijklmnop"
	return []string{
		"", "\x00", "\x00\x00", "a", "ab", "ab\x00", "ab\x00\x00", "ab\x00c",
		"\x7f", "\x80", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
		"abcdefg\x7f", "abcdefg\x80", "abcdefg\xff",
		p8, p8 + "\x00", p8 + "\x00\x00", p8 + "i", p8 + "\x80", p8 + "\xff\x00",
		p16, p16 + "\x00", p16 + "q", p16 + "\x80", p16 + "\x00\x00\x00\x00\x00\x00\x00\x00\x00",
		p16 + "qrstuvwx", p16 + "qrstuvwxy", p16 + "qrstuvwx\x00",
	}
}

// checkKeyOrder sorts keys with hi through s and fails unless the order
// is the stable sort by (hi, strings.Compare) and, walked backwards, the
// sort by (hi, strings.Compare) descending.
func checkKeyOrder(t *testing.T, s *Sorter, keys []string, hi []uint64) {
	t.Helper()
	s.Items = s.Items[:0]
	for i, k := range keys {
		s.Items = append(s.Items, Item{Hi: hi[i], Prefix: KeyPrefix(k), Idx: int32(i)})
	}
	var got []int32
	for _, it := range s.Sort(func(i int32) string { return keys[i] }) {
		got = append(got, it.Idx)
	}
	compare := func(a, b int32) int {
		if c := cmp.Compare(hi[a], hi[b]); c != 0 {
			return c
		}
		return strings.Compare(keys[a], keys[b])
	}
	want := make([]int32, len(keys))
	for i := range want {
		want[i] = int32(i)
	}
	desc := slices.Clone(want)
	slices.SortStableFunc(want, compare)
	if !slices.Equal(got, want) {
		t.Fatalf("order %q, want %q", pick(keys, got), pick(keys, want))
	}
	// Items equal on (hi, key) may trade places when walked backwards.
	slices.SortStableFunc(desc, func(a, b int32) int { return compare(b, a) })
	slices.Reverse(got)
	for i := range got {
		if compare(got[i], desc[i]) != 0 {
			t.Fatalf("backwards %q, want %q", pick(keys, got), pick(keys, desc))
		}
	}
}

func pick(keys []string, idx []int32) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = keys[j]
	}
	return out
}

// TestKeyOrderMatchesStringsCompare checks the shared key order against
// its oracle, slices.SortStableFunc with strings.Compare, in both
// directions (the descending order is the result walked backwards), with
// Hi tied and not, over adversarial and random keys and runs of every
// length from 0 up, through one reused Sorter.
func TestKeyOrderMatchesStringsCompare(t *testing.T) {
	var s Sorter
	rng := rand.New(rand.NewSource(1))
	adv := adversarialKeys()
	alphabet := []byte{0x00, 0x01, 'a', 'b', 0x7f, 0x80, 0xff}
	randomKey := func() string {
		n := rng.Intn(20)
		if rng.Intn(2) == 0 {
			n += 8 * (1 + rng.Intn(2)) // past one or two prefix words
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for trial := 0; trial < 600; trial++ {
		var keys []string
		switch n := trial % 40; {
		case trial < 40:
			keys = adv[:min(n, len(adv))] // runs of 0, 1, 2, … items
		case trial%2 == 0:
			keys = slices.Clone(adv)
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			keys = keys[:1+rng.Intn(len(keys))]
		default:
			keys = make([]string, 1+rng.Intn(200))
			for i := range keys {
				keys[i] = randomKey()
			}
		}
		hi := make([]uint64, len(keys))
		switch trial % 3 {
		case 1: // a few values: tied runs under a varying Hi
			for i := range hi {
				hi[i] = uint64(rng.Intn(3))
			}
		case 2: // a complemented size, as Algorithm 3 sorts by
			for i := range hi {
				hi[i] = ^uint64(rng.Intn(1000))
			}
		}
		checkKeyOrder(t, &s, keys, hi)
	}
}

// FuzzKeyOrder checks the shared key order against strings.Compare on
// arbitrary keys: each key is a header byte — its length mod 32 and a
// three-bit Hi — followed by that many bytes of the input.
func FuzzKeyOrder(f *testing.F) {
	f.Add([]byte("\x02ab\x03ab\x00\x00"))
	f.Add([]byte("\x08abcdefgh\x09abcdefgh\x00\x10abcdefghijklmnop\x00"))
	f.Add([]byte("\x01\x80\x01\x7f\x00\x21\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys []string
		var hi []uint64
		for len(data) > 0 {
			h := data[0]
			n := min(int(h%32), len(data)-1)
			keys = append(keys, string(data[1:1+n]))
			hi = append(hi, uint64(h>>5))
			data = data[1+n:]
		}
		var s Sorter
		checkKeyOrder(t, &s, keys, hi)
	})
}

// BenchmarkSorterSort times the shared key order on the shapes the batch
// path sorts: one Map task's clusters (Algorithm 3: small sizes, key
// ascending), a batch result (the approximate tier: key ascending, Hi
// tied) and a batch's published frequencies (Algorithm 1, walked
// backwards), over bench-style keys "k<rank>".
func BenchmarkSorterSort(b *testing.B) {
	for _, sh := range []struct {
		name  string
		n     int
		hiMax int
	}{
		{"clusters-700", 700, 8},
		{"result-5600", 5600, 0},
		{"frequencies-10000", 10_000, 64},
	} {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			keys := make([]string, sh.n)
			hi := make([]uint64, sh.n)
			for i, r := range rng.Perm(30_000)[:sh.n] {
				keys[i] = "k" + strconv.Itoa(r)
				if sh.hiMax > 0 {
					hi[i] = ^uint64(1 + rng.Intn(sh.hiMax))
				}
			}
			key := func(i int32) string { return keys[i] }
			var s Sorter
			b.ResetTimer()
			for range b.N {
				s.Items = s.Items[:0]
				for i, k := range keys {
					s.Items = append(s.Items, Item{Hi: hi[i], Prefix: KeyPrefix(k), Idx: int32(i)})
				}
				s.Sort(key)
			}
		})
	}
}
