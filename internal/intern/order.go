package intern

import (
	"encoding/binary"
	"slices"
)

// Item is one element of the key order: a primary sort key, the prefix
// of the key it ties break on, and Idx, the caller's name for that key.
type Item struct {
	Hi     uint64 // primary sort key, ascending
	Prefix uint64 // KeyPrefix of the item's key
	Idx    int32
}

// digit returns byte d of the item's sort key, d = 0 the least
// significant: bytes 0–7 are the prefix's, 8–15 Hi's.
func (it *Item) digit(d int) uint8 {
	if d < 8 {
		return uint8(it.Prefix >> (8 * d))
	}
	return uint8(it.Hi >> (8 * (d - 8)))
}

// KeyPrefix is the first eight bytes of key, big-endian and zero-padded:
// keys with different prefixes order as their prefixes do, and keys with
// equal prefixes need their later bytes.
func KeyPrefix(key string) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// Sorter is the batch path's one key-ordered sort (see the package doc):
// append the items to Items, then Sort. Both buffers are reused across
// calls, so a Sorter kept beside its caller stops allocating once it has
// grown to the largest input. It is not safe for concurrent use.
type Sorter struct {
	Items []Item
	spare []Item
}

// Sort sorts Items ascending by Hi, then by key in strings.Compare's
// order, and returns them; key(Idx) is an item's key. It is an LSD radix
// sort over the bytes of (Hi, Prefix) that not every item shares, and
// reads later key bytes only inside runs that tie on both. It is stable,
// and may leave an item's Prefix changed. Walked backwards, its result
// is the descending order.
func (s *Sorter) Sort(key func(int32) string) []Item {
	items := s.Items
	if len(items) < 2 {
		return items
	}
	spare := slices.Grow(s.spare[:0], len(items))[:len(items)]
	items, spare = radixSort(items, spare)
	breakTies(items, spare, key, 8)
	s.Items, s.spare = items, spare
	return items
}

// breakTies orders each run of items that agree on (Hi, Prefix) by the
// next eight bytes of their keys, from byte off on, recursing until the
// keys differ. Keys still tied when all are exhausted differ only in
// trailing NUL bytes, and the longer is the greater.
func breakTies(items, spare []Item, key func(int32) string, off int) {
	for i := 0; i < len(items); {
		j := i + 1
		for j < len(items) && items[j].Hi == items[i].Hi && items[j].Prefix == items[i].Prefix {
			j++
		}
		run := items[i:j]
		i = j
		if len(run) < 2 {
			continue
		}
		longest := 0
		for k := range run {
			kk := key(run[k].Idx)
			longest = max(longest, len(kk))
			run[k].Prefix = KeyPrefix(kk[min(off, len(kk)):])
		}
		if longest <= off {
			slices.SortStableFunc(run, func(x, y Item) int {
				return len(key(x.Idx)) - len(key(y.Idx))
			})
			continue
		}
		if sorted, _ := radixSort(run, spare[:len(run)]); &sorted[0] != &run[0] {
			copy(run, sorted)
		}
		breakTies(run, spare, key, off+8)
	}
}

// radixSort sorts items ascending by (Hi, Prefix) with an LSD radix sort:
// one stable counting pass per byte that not every item shares (short
// keys' zero padding and Hi's high bytes are skipped), scattering between
// items and tmp, a buffer of the same length. It returns the buffer
// holding the result first and the other second.
func radixSort(items, tmp []Item) (sorted, spare []Item) {
	andH, andP := ^uint64(0), ^uint64(0)
	var orH, orP uint64
	for i := range items {
		andH, orH = andH&items[i].Hi, orH|items[i].Hi
		andP, orP = andP&items[i].Prefix, orP|items[i].Prefix
	}
	varying := [2]uint64{andP ^ orP, andH ^ orH}
	var counts [256]int32
	for d := 0; d < 16; d++ {
		if uint8(varying[d/8]>>(8*(d%8))) == 0 {
			continue // every item has the same byte here
		}
		clear(counts[:])
		for i := range items {
			counts[items[i].digit(d)]++
		}
		var sum int32
		for b := range counts {
			counts[b], sum = sum, sum+counts[b]
		}
		for i := range items {
			b := items[i].digit(d)
			tmp[counts[b]] = items[i]
			counts[b]++
		}
		items, tmp = tmp, items
	}
	return items, tmp
}
