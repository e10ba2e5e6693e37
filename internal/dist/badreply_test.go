package dist

import (
	"errors"
	"runtime"
	"testing"

	"prompt/internal/engine"
	"prompt/internal/intern"
	"prompt/internal/transport"
	"prompt/internal/tuple"
	"prompt/internal/wire"
)

// forger is a shard that handshakes correctly and then answers every task
// frame with a hand-written reply.
type forger struct {
	mapReply    func(*wire.MapTaskCols) *wire.MapResult
	reduceReply func(*wire.ReduceTask) *wire.ReduceResult
}

func (f *forger) Handle(req wire.Msg) (wire.Msg, error) {
	switch m := req.(type) {
	case *wire.Hello:
		return &wire.HelloAck{Shard: m.Shard, Queries: len(m.Queries)}, nil
	case *wire.MapTaskCols:
		return f.mapReply(m), nil
	case *wire.ReduceTask:
		return f.reduceReply(m), nil
	}
	return nil, errors.New("forger: unexpected frame")
}

// TestCoordinatorRejectsBadReplies sends one Map and one Reduce task to a
// shard that answers with each kind of malformed entry: the coordinator
// must return ErrBadReply before it indexes anything by the forged ID or
// size. The first case is the one that used to make BucketSet allocate
// 8 GiB (a dense key number of 1<<31-1).
func TestCoordinatorRejectsBadReplies(t *testing.T) {
	dict := intern.NewDict(0)
	for _, k := range []string{"a", "b", "c", "d"} {
		dict.Intern(k)
	}
	bl := tuple.NewBlock(0)
	for _, k := range []string{"a", "b"} {
		id, _ := dict.Lookup(k)
		var cols tuple.ColSlice
		cols = cols.Append(1, 1, 1)
		bl.AddDenseCols(k, id, cols, 1)
	}
	contribs := [][]engine.Contrib{{{ID: 0, Val: 1}, {ID: 1, Val: 2}, {ID: 0, Val: 3}}}

	mapCase := func(cs ...wire.Cluster) func(*wire.MapTaskCols) *wire.MapResult {
		return func(m *wire.MapTaskCols) *wire.MapResult {
			return &wire.MapResult{Batch: m.Batch, Query: m.Query, Outs: []wire.BlockOut{{Clusters: cs}}, Factor: 1}
		}
	}
	reduceCase := func(es ...wire.Contrib) func(*wire.ReduceTask) *wire.ReduceResult {
		return func(m *wire.ReduceTask) *wire.ReduceResult {
			return &wire.ReduceResult{Batch: m.Batch, Query: m.Query, Outs: []wire.BucketOut{{Bucket: 0, Entries: es}}, Factor: 1}
		}
	}
	good := wire.Cluster{KeyID: 0, Size: 1, Val: 1}
	for _, tc := range []struct {
		name string
		f    forger
	}{
		{"map id beyond the dictionary", forger{mapReply: mapCase(wire.Cluster{KeyID: 1<<31 - 1, Size: 1})}},
		{"map id beyond uint31", forger{mapReply: mapCase(wire.Cluster{KeyID: 1<<32 - 1, Size: 1})}},
		{"map id not in the block", forger{mapReply: mapCase(good, wire.Cluster{KeyID: 3, Size: 1})}},
		{"map id repeated", forger{mapReply: mapCase(good, good)}},
		{"map size zero", forger{mapReply: mapCase(wire.Cluster{KeyID: 1, Size: 0})}},
		{"map size negative", forger{mapReply: mapCase(wire.Cluster{KeyID: 1, Size: -1 << 40})}},
		{"map header", forger{mapReply: func(m *wire.MapTaskCols) *wire.MapResult {
			return &wire.MapResult{Batch: m.Batch + 1, Query: m.Query, Outs: []wire.BlockOut{{}}, Factor: 1}
		}}},
		{"reduce id beyond the dictionary", forger{reduceReply: reduceCase(wire.Contrib{KeyID: 0}, wire.Contrib{KeyID: 1<<31 - 1})}},
		{"reduce id not contributed", forger{reduceReply: reduceCase(wire.Contrib{KeyID: 0}, wire.Contrib{KeyID: 2})}},
		{"reduce id repeated", forger{reduceReply: reduceCase(wire.Contrib{KeyID: 0}, wire.Contrib{KeyID: 0})}},
		{"reduce entry missing", forger{reduceReply: reduceCase(wire.Contrib{KeyID: 1})}},
		{"reduce bucket", forger{reduceReply: func(m *wire.ReduceTask) *wire.ReduceResult {
			return &wire.ReduceResult{Batch: m.Batch, Query: m.Query, Outs: []wire.BucketOut{{Bucket: 5}}, Factor: 1}
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.f
			coord, err := NewCoordinator(transport.NewLoopback(&f), tuple.Second, testQueries()[:1])
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if f.mapReply != nil {
				_, err = coord.MapBlocks(0, 0, dict, []*tuple.Block{bl}, 1)
			} else {
				_, err = coord.ReduceBuckets(0, 0, dict, contribs)
			}
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadReply) {
				t.Fatalf("error %v, want ErrBadReply", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("rejecting the reply allocated %d bytes", grew)
			}
			if coord.Down() != 0 {
				t.Error("a bad reply marked the shard down")
			}
		})
	}
}

// TestCoordinatorAcceptsWellFormedReplies is the forger's control: the
// same tasks answered correctly go through.
func TestCoordinatorAcceptsWellFormedReplies(t *testing.T) {
	dict := intern.NewDict(0)
	a, b := dict.Intern("a"), dict.Intern("b")
	bl := tuple.NewBlock(0)
	var cols tuple.ColSlice
	cols = cols.Append(1, 1, 1)
	bl.AddDenseCols("b", b, cols, 1)
	bl.AddDenseCols("a", a, cols, 1)
	f := forger{
		mapReply: func(m *wire.MapTaskCols) *wire.MapResult {
			return &wire.MapResult{Batch: m.Batch, Query: m.Query, Outs: []wire.BlockOut{{Clusters: []wire.Cluster{
				{KeyID: b, Size: 1, Val: 1}, {KeyID: a, Size: 1, Val: 1},
			}}}, Factor: 1}
		},
		reduceReply: func(m *wire.ReduceTask) *wire.ReduceResult {
			return &wire.ReduceResult{Batch: m.Batch, Query: m.Query, Outs: []wire.BucketOut{{Bucket: 0, Entries: []wire.Contrib{
				{KeyID: b, Val: 4}, {KeyID: a, Val: 2},
			}}}, Factor: 1}
		},
	}
	coord, err := NewCoordinator(transport.NewLoopback(&f), tuple.Second, testQueries()[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	outs, err := coord.MapBlocks(0, 0, dict, []*tuple.Block{bl}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := outs[0].Clusters; len(got) != 2 || got[0].Key != "b" || got[0].ID != b || got[1].Key != "a" {
		t.Errorf("clusters %+v", got)
	}
	res, err := coord.ReduceBuckets(0, 0, dict, [][]engine.Contrib{{{ID: b, Val: 1}, {ID: a, Val: 2}, {ID: b, Val: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if r := res[0]; len(r.IDs) != 2 || r.IDs[0] != b || r.Vals[0] != 4 || r.IDs[1] != a {
		t.Errorf("result %+v", r)
	}
}
