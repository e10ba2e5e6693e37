// Package hashutil provides the seeded string hashing used by the hash
// partitioner and by the key-splitting (PK-d) partitioners, which need a
// family of independent hash functions per key.
package hashutil

// fnv64 constants (FNV-1a).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash returns the 64-bit FNV-1a hash of s.
func Hash(s string) uint64 {
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Seeded returns a seeded 64-bit hash of s. Different seeds yield
// effectively independent hash functions, which PK-d uses to generate d
// candidate partitions per key.
func Seeded(s string, seed uint64) uint64 {
	h := offset64 ^ (seed * prime64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// Final avalanche (splitmix64 style) so that consecutive seeds do not
	// produce correlated buckets for short keys.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Bucket maps s to one of n buckets using the unseeded hash. n must be > 0.
func Bucket(s string, n int) int {
	return int(Hash(s) % uint64(n))
}

// SeededBucket maps s to one of n buckets using hash function number seed.
func SeededBucket(s string, seed uint64, n int) int {
	return int(Seeded(s, seed) % uint64(n))
}

// AppendCandidates appends the d candidate buckets for key s among n
// buckets to dst and returns the extended slice, as used by PK-d style
// key-splitting partitioners. Candidates may collide for small n; callers
// treat them as a multiset.
func AppendCandidates(dst []int, s string, d, n int) []int {
	for i := 0; i < d; i++ {
		dst = append(dst, SeededBucket(s, uint64(i+1), n))
	}
	return dst
}
