package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prompt"
	"prompt/bench/harness"
	"prompt/internal/approx"
	"prompt/internal/engine"
	"prompt/internal/intern"
	"prompt/internal/migrate"
	"prompt/internal/partition"
	"prompt/internal/reducer"
	"prompt/internal/ring"
	"prompt/internal/stats"
	"prompt/internal/transport"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/wire"
)

// probePasses is how many times each probe replays the workload's cycle
// after one warming pass.
const probePasses = 3

// probes replays the workload's own cycle through each layer's public
// entry point on one goroutine and reports what each call costs. The
// numbers are the layers' prices in isolation: no pipeline around them,
// warm caches, no allocation pressure from neighbours.
type probes struct {
	w     harness.Workload
	cycle *harness.Cycle
	vals  map[string]float64
}

func (p *probes) nsPerTuple(name string, d time.Duration, tuples int) {
	p.vals[name] = float64(d.Nanoseconds()) / float64(tuples)
}

// stamped returns the cycle's batches re-stamped to consecutive
// intervals starting at 0, so interval checks inside the layers pass.
func (p *probes) stamped(pass int) [][]prompt.Tuple {
	out := make([][]prompt.Tuple, len(p.cycle.Batches))
	for i := range out {
		n := pass*len(out) + i
		out[i] = p.cycle.Restamp(nil, i, prompt.Time(n)*p.cycle.Interval)
	}
	return out
}

// ingest probes the per-tuple layers of the accumulate stage: intern,
// transpose, Algorithm 1 in its column and row forms, finalize; and,
// over the finalized key list, Algorithm 2, hashing, and the reducer's
// bucket assignment.
func (p *probes) ingest() error {
	dict := intern.NewDict(0)
	cfg := stats.DefaultAccumulatorConfig()
	q := p.w.Query().Normalized()
	pr, hs, alloc := partition.NewPrompt(), partition.NewHash(), reducer.NewPrompt()
	cb := tuple.GetColumnBatch()
	defer tuple.PutColumnBatch(cb)

	var acc, rowAcc *stats.Accumulator
	var tIntern, tTranspose, tCols, tRows, tFinal, tPrompt, tHash, tAssign time.Duration
	var tuples, batches, treeUpdates, keys int
	for pass := 0; pass <= probePasses; pass++ {
		timed := pass > 0 // pass 0 warms dictionaries, arenas and pools
		for i, rows := range p.stamped(pass) {
			start := prompt.Time(pass*len(p.cycle.Batches)+i) * p.cycle.Interval
			end := start + p.cycle.Interval

			t0 := time.Now()
			for j := range rows {
				dict.Intern(rows[j].Key)
			}
			t1 := time.Now()
			cb.Reset()
			cb.AppendRows(rows, dict.Intern)
			cb.Start, cb.End = start, end
			t2 := time.Now()

			var err error
			if acc == nil {
				if acc, err = stats.NewAccumulatorDict(cfg, dict, start, end); err != nil {
					return err
				}
				if rowAcc, err = stats.NewAccumulatorDict(cfg, dict, start, end); err != nil {
					return err
				}
			} else {
				if err = acc.Reset(cfg, start, end); err != nil {
					return err
				}
				if err = rowAcc.Reset(cfg, start, end); err != nil {
					return err
				}
			}
			t3 := time.Now()
			if err = acc.AddColumns(cb); err != nil {
				return err
			}
			t4 := time.Now()
			for j := range rows {
				if err = rowAcc.Add(rows[j], rows[j].TS); err != nil {
					return err
				}
			}
			t5 := time.Now()
			// The row accumulator's output feeds the partitioners: rows
			// are what today's ProcessBatch hands them.
			sorted, st := rowAcc.Finalize()
			t6 := time.Now()
			batch := &tuple.Batch{Start: start, End: end, Tuples: rows}
			blocks, err := pr.Partition(partition.Input{Batch: batch, Sorted: sorted}, harness.MapTasks)
			if err != nil {
				return err
			}
			t7 := time.Now()
			if _, err = hs.Partition(partition.Input{Batch: batch}, harness.MapTasks); err != nil {
				return err
			}
			t8 := time.Now()
			var assign time.Duration
			for _, bl := range blocks {
				clusters, _ := engine.MapBlock(q, bl)
				a0 := time.Now()
				if _, err = alloc.Assign(bl.ID, clusters, bl.Ref, harness.ReduceTasks); err != nil {
					return err
				}
				assign += time.Since(a0)
			}
			// Estimates feed back exactly as the engine feeds them.
			cfg.EstimatedTuples, cfg.EstimatedKeys = st.Tuples, st.Keys

			if timed {
				tIntern += t1.Sub(t0)
				tTranspose += t2.Sub(t1)
				tCols += t4.Sub(t3)
				tRows += t5.Sub(t4)
				tFinal += t6.Sub(t5)
				tPrompt += t7.Sub(t6)
				tHash += t8.Sub(t7)
				tAssign += assign
				tuples += len(rows)
				batches++
				treeUpdates += rowAcc.TreeUpdates()
				keys += st.Keys
			}
		}
	}
	b := float64(batches)
	p.nsPerTuple("intern.intern_ns_per_tuple", tIntern, tuples)
	p.nsPerTuple("tuple.transpose_ns_per_tuple", tTranspose, tuples)
	p.nsPerTuple("stats.accumulate_ns_per_tuple", tCols, tuples)
	p.nsPerTuple("stats.accumulate_rows_ns_per_tuple", tRows, tuples)
	p.vals["stats.finalize_us_per_batch"] = float64(tFinal.Microseconds()) / b
	p.vals["stats.tree_updates_per_batch"] = float64(treeUpdates) / b
	p.vals["stats.keys_per_batch"] = float64(keys) / b
	p.vals["partition.prompt_ms_per_batch"] = msOf(tPrompt) / b
	p.vals["partition.hash_ms_per_batch"] = msOf(tHash) / b
	p.vals["reducer.assign_us_per_batch"] = float64(tAssign.Microseconds()) / b
	return nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// batchResults folds each cycle batch into the per-key result map the
// commit stage would receive for it.
func (p *probes) batchResults() []map[string]float64 {
	out := make([]map[string]float64, len(p.cycle.Batches))
	for i := range out {
		out[i] = p.cycle.Reference(p.w, []int{i})
	}
	return out
}

func (p *probes) newAggregator() (*window.Aggregator, error) {
	spec := window.Sliding(tuple.FromDuration(harness.WindowLen), tuple.FromDuration(harness.Interval))
	return window.NewAggregator(spec, window.Sum, window.SumInverse)
}

// state probes the per-key layers of the commit stage at steady state
// (a full window, so every AddBatch also evicts): the window merge, its
// snapshot, the count-min fold, and the hand-off codec over the 64 slot
// images of the warmed window.
func (p *probes) state() error {
	results := p.batchResults()
	agg, err := p.newAggregator()
	if err != nil {
		return err
	}
	var est *approx.Estimator
	if p.w.Churn {
		spec := approx.Spec{Kind: approx.CountMinKind}.WithDefaults()
		if est, err = approx.NewEstimator(spec, tuple.FromDuration(harness.WindowLen)); err != nil {
			return err
		}
	}
	var addMS, approxMS []float64
	n := 0
	step := func(timed bool) error {
		end := prompt.Time(n+1) * p.cycle.Interval
		res := results[n%len(results)]
		t0 := time.Now()
		if err := agg.AddBatch(end, res); err != nil {
			return err
		}
		t1 := time.Now()
		if est != nil {
			if err := est.AddBatch(end, res); err != nil {
				return err
			}
		}
		t2 := time.Now()
		if timed {
			addMS = append(addMS, msOf(t1.Sub(t0)))
			approxMS = append(approxMS, msOf(t2.Sub(t1)))
		}
		n++
		return nil
	}
	for i := 0; i < harness.WarmupBatches; i++ {
		if err := step(false); err != nil {
			return err
		}
	}
	for i := 0; i < probePasses*len(results); i++ {
		if err := step(true); err != nil {
			return err
		}
	}
	p.vals["window.addbatch_ms_p50"] = harness.Median(addMS)
	t0 := time.Now()
	snap := agg.Snapshot()
	p.vals["window.snapshot_ms"] = msOf(time.Since(t0))
	p.vals["window.live_keys"] = float64(len(snap))
	if est != nil {
		p.vals["approx.addbatch_ms_p50"] = harness.Median(approxMS)
	}
	if !p.w.Churn {
		return nil
	}

	// Hand-off codec: extract and encode every slot of the warmed window,
	// then decode and apply the images to an empty one.
	dict := intern.NewDict(0)
	for k := range snap {
		dict.Intern(k)
	}
	aggs := []*window.Aggregator{agg}
	images := make([][]byte, migrate.NumSlots)
	bytes := 0
	t0 = time.Now()
	for slot := range images {
		images[slot] = migrate.Extract(slot, n, 0, 1, aggs, dict).Encode()
		bytes += len(images[slot])
	}
	p.vals["migrate.encode_ms"] = msOf(time.Since(t0))
	p.vals["migrate.image_bytes"] = float64(bytes)
	fresh, err := p.newAggregator()
	if err != nil {
		return err
	}
	// ApplyKeys needs the recipient to retain the very batch ends the
	// images were extracted from.
	for i := n - harness.WindowBatches; i < n; i++ {
		if err := fresh.AddBatch(prompt.Time(i+1)*p.cycle.Interval, nil); err != nil {
			return err
		}
	}
	freshAggs := []*window.Aggregator{fresh}
	freshDict := intern.NewDict(0)
	t0 = time.Now()
	for _, b := range images {
		img, err := migrate.Decode(b)
		if err != nil {
			return err
		}
		if err := migrate.Apply(img, freshAggs, freshDict); err != nil {
			return err
		}
	}
	p.vals["migrate.decode_ms"] = msOf(time.Since(t0))
	if got := len(fresh.Snapshot()); got != len(snap) {
		return fmt.Errorf("hand-off probe: %d keys after decode+apply, %d before extract", got, len(snap))
	}
	return nil
}

// wireCodec re-encodes and decodes the frames the tap captured.
func (p *probes) wireCodec(frames []capture, batches int) error {
	if len(frames) == 0 || batches == 0 {
		return nil
	}
	tuples := batches * p.w.Tuples
	var out, in int
	var tMarshal, tUnmarshal time.Duration
	for pass := 0; pass <= probePasses; pass++ {
		for _, f := range frames {
			for _, frame := range [][]byte{f.req, f.reply} {
				t0 := time.Now()
				msg, err := wire.UnmarshalFrame(frame)
				t1 := time.Now()
				if err != nil {
					return err
				}
				if _, err := wire.Marshal(msg); err != nil {
					return err
				}
				t2 := time.Now()
				if pass > 0 {
					tUnmarshal += t1.Sub(t0)
					tMarshal += t2.Sub(t1)
				}
			}
			if pass == 0 {
				out += len(f.req)
				in += len(f.reply)
			}
		}
	}
	p.nsPerTuple("wire.marshal_ns_per_tuple", tMarshal, probePasses*tuples)
	p.nsPerTuple("wire.unmarshal_ns_per_tuple", tUnmarshal, probePasses*tuples)
	p.vals["wire.bytes_out_per_batch"] = float64(out) / float64(batches)
	p.vals["wire.bytes_in_per_batch"] = float64(in) / float64(batches)
	return nil
}

// rtt times an echo exchange of one captured map frame over each
// transport backend: what a round trip costs with no work on the far
// side.
func (p *probes) rtt(frames []capture, tmpRoot string) error {
	var frame []byte
	for _, f := range frames {
		if len(f.req) > len(frame) {
			frame = f.req // the largest request is a map task
		}
	}
	if frame == nil {
		return nil
	}
	msg, err := wire.UnmarshalFrame(frame)
	if err != nil {
		return err
	}
	echo := transport.HandlerFunc(func(req wire.Msg) (wire.Msg, error) { return req, nil })
	measure := func(name string, tr transport.Transport) error {
		defer tr.Close()
		conn, err := tr.Dial(0)
		if err != nil {
			return err
		}
		var us []float64
		for i := 0; i < 60; i++ {
			t0 := time.Now()
			if _, err := conn.Exchange(msg); err != nil {
				return fmt.Errorf("%s echo: %w", name, err)
			}
			if i >= 10 {
				us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
		p.vals["transport.rtt_us_p50."+name] = harness.Median(us)
		return nil
	}
	if err := measure("loopback", transport.NewLoopback(echo)); err != nil {
		return err
	}
	if err := measure("pipe", transport.NewPipe(0, echo)); err != nil {
		return err
	}

	dir, err := os.MkdirTemp(tmpRoot, "rtt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "echo.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_ = transport.Serve(c, echo) // ends when the client closes
	}()
	err = measure("unix", transport.NewNet([]string{"unix:" + sock}))
	ln.Close()
	wg.Wait()
	return err
}

// ringProbe pushes the cycle through one SPSC ring against a draining
// consumer. No workload ingests through a Receiver today; the number is
// the baseline for the change that moves ingest onto the ring.
func (p *probes) ringProbe() {
	r := ring.NewSPSC(1 << 12)
	n := 0
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, batch := range p.cycle.Batches {
			for i := range batch {
				r.Push(batch[i])
			}
		}
		r.Close()
	}()
	r.Drain(func(tuple.Tuple) { n++ })
	wg.Wait()
	p.nsPerTuple("ring.push_drain_ns_per_tuple", time.Since(t0), n)
}
