package prompt_test

import (
	"errors"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"prompt"

	"prompt/internal/dist"
	"prompt/internal/transport"
	"prompt/internal/tuple"
	"prompt/internal/workload"
)

// scrubReports zeroes the wall-clock-measured report fields so runs that
// differ only in where the folds executed compare bit for bit.
func scrubReports(reps []prompt.BatchReport) []prompt.BatchReport {
	out := append([]prompt.BatchReport(nil), reps...)
	for i := range out {
		out[i].PartitionTime, out[i].PartitionOverflow = 0, 0
		out[i].ProcessingTime, out[i].QueueWait, out[i].Latency = 0, 0, 0
		out[i].W, out[i].Stable = 0, false
	}
	return out
}

func zipfSource(t *testing.T, seed int64) *workload.Source {
	t.Helper()
	keys, err := workload.NewZipfSampler("w", 400, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return &workload.Source{Name: "zipf", Rate: workload.ConstantRate(2000), Keys: keys, Seed: seed}
}

// serveShards starts one transport-served shard runtime per address over
// unix sockets and returns the addresses.
func serveShards(t *testing.T, n int, queries []prompt.Query) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	for i := 0; i < n; i++ {
		path := filepath.Join(t.TempDir(), "shard.sock")
		ln, err := net.Listen("unix", path)
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		sh := dist.NewShard(i, queries)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				mu.Lock()
				conns = append(conns, c)
				mu.Unlock()
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = transport.Serve(c, sh)
				}()
			}
		}()
		addrs[i] = "unix:" + path
	}
	t.Cleanup(func() {
		for _, ln := range lns {
			ln.Close()
		}
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return addrs
}

// TestClusterMatchesSingleProcess is the public face of the golden
// differential: the same stream over no cluster, an in-process loopback
// cluster, and a socket cluster produces bit-identical reports, windows,
// and per-batch results.
func TestClusterMatchesSingleProcess(t *testing.T) {
	q := prompt.WordCount(5*time.Second, time.Second)
	base := prompt.Config{
		BatchInterval: time.Second,
		MapTasks:      4,
		ReduceTasks:   4,
		Validate:      true,
	}

	run := func(t *testing.T, cfg prompt.Config) ([]prompt.BatchReport, map[string]float64, map[string]float64) {
		st, err := prompt.New(cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		src := zipfSource(t, 42)
		reps, err := st.Run(func(start, end prompt.Time) ([]prompt.Tuple, error) {
			return src.Slice(start, end)
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return scrubReports(reps), st.Window(), st.Result()
	}

	wantReps, wantWin, wantRes := run(t, base)

	t.Run("local-shards", func(t *testing.T) {
		cfg := base
		cfg.Topology = prompt.Topology{Local: 3}
		reps, win, res := run(t, cfg)
		if !reflect.DeepEqual(reps, wantReps) {
			t.Error("reports diverged on the loopback cluster")
		}
		if !reflect.DeepEqual(win, wantWin) || !reflect.DeepEqual(res, wantRes) {
			t.Error("answers diverged on the loopback cluster")
		}
	})

	t.Run("socket-shards", func(t *testing.T) {
		cfg := base
		cfg.Topology = prompt.Topology{
			Shards:          serveShards(t, 2, []prompt.Query{q}),
			ExchangeTimeout: 5 * time.Second,
		}
		reps, win, res := run(t, cfg)
		if !reflect.DeepEqual(reps, wantReps) {
			t.Error("reports diverged on the socket cluster")
		}
		if !reflect.DeepEqual(win, wantWin) || !reflect.DeepEqual(res, wantRes) {
			t.Error("answers diverged on the socket cluster")
		}
	})
}

func TestTopologyOptionValidation(t *testing.T) {
	q := prompt.WordCount(5*time.Second, time.Second)
	if _, err := prompt.NewWithOptions(q, prompt.WithShards(0)); !errors.Is(err, prompt.ErrBadConfig) {
		t.Errorf("WithShards(0): got %v, want ErrBadConfig", err)
	}
	if _, err := prompt.NewWithOptions(q, prompt.WithTopology(prompt.Topology{})); !errors.Is(err, prompt.ErrBadConfig) {
		t.Errorf("WithTopology(zero): got %v, want ErrBadConfig", err)
	}
	if _, err := prompt.NewWithOptions(q, prompt.WithTopology(prompt.Topology{
		Shards: []string{"unix:/tmp/x.sock"}, Local: 2,
	})); !errors.Is(err, prompt.ErrBadConfig) {
		t.Errorf("ambiguous topology: got %v, want ErrBadConfig", err)
	}
	// An unreachable cluster is a connection failure, not a config error.
	cfg := prompt.Config{Topology: prompt.Topology{
		Shards: []string{"unix:" + filepath.Join(t.TempDir(), "nobody.sock")},
		Retry:  prompt.RetryPolicy{MaxAttempts: 1, Backoff: tuple.Millisecond},
	}}
	if _, err := prompt.New(cfg, q); !errors.Is(err, prompt.ErrCluster) {
		t.Errorf("unreachable cluster: got %v, want ErrCluster", err)
	}
}

func TestClusterStreamLifecycle(t *testing.T) {
	st, err := prompt.NewWithOptions(prompt.WordCount(5*time.Second, time.Second),
		prompt.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if f := st.BackpressureFactor(); f != 1 {
		t.Errorf("initial BackpressureFactor = %v, want 1", f)
	}
	if n := st.ShardsDown(); n != 0 {
		t.Errorf("ShardsDown = %d, want 0", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	// Single-process streams are unaffected by the cluster surface.
	solo := testStream(t, prompt.SchemePrompt)
	if f := solo.BackpressureFactor(); f != 1 {
		t.Errorf("solo BackpressureFactor = %v, want 1", f)
	}
	if err := solo.Close(); err != nil {
		t.Errorf("solo Close: %v", err)
	}
}
