package prompt

import (
	"errors"

	"prompt/internal/tuple"
)

// Sentinel errors for programmatic handling with errors.Is. Error strings
// remain descriptive, but callers should match on these values instead of
// substrings.
var (
	// ErrBadConfig reports an invalid configuration: a non-positive batch
	// interval, an unknown scheme, out-of-range parallelism, or a query
	// the engine rejects (e.g. a window shorter than the batch interval).
	// New, NewMulti, NewWithOptions, ParseScheme, and every Option wrap
	// their validation failures in it.
	ErrBadConfig = errors.New("prompt: invalid configuration")

	// ErrNoWindow reports that a windowed answer was requested from a
	// windowless (per-batch) query. Stream.TopK and MultiStream.TopK
	// return it; Stream.HasWindow checks ahead of time.
	ErrNoWindow = errors.New("prompt: query has no window")

	// ErrNoApprox reports that an approximate answer was requested from a
	// stream with no approximate query configured. The Approx accessors
	// return it; HasApprox checks ahead of time.
	ErrNoApprox = errors.New("prompt: no approximate query configured")

	// ErrCluster reports that a configured shard cluster could not be
	// reached: dialing or handshaking a Topology shard failed even after
	// the transport's backoff. New and Restore wrap cluster connection
	// failures in it (topology shape problems wrap ErrBadConfig instead).
	ErrCluster = errors.New("prompt: cluster unavailable")

	// ErrWeightOverflow reports a tuple whose Weight does not fit the
	// engine's int32 weight column. ProcessBatch, Run, and
	// ProcessReceived wrap it and commit nothing of the batch: Now is
	// unchanged and the batch may be retried with valid weights.
	ErrWeightOverflow = tuple.ErrWeightOverflow
)
