package harness

import (
	"fmt"
	"runtime"
	"time"

	"prompt"
)

// Stream is the part of *prompt.Stream every workload drives. It is an
// interface so that bench/layers can run the same phases over an engine
// it wired by hand around a tapping transport.
type Stream interface {
	Now() prompt.Time
	ProcessBatch(tuples []prompt.Tuple) (prompt.BatchReport, error)
	Run(src prompt.BatchSource, n int) ([]prompt.BatchReport, error)
	Window() map[string]float64
	ShardsDown() int
	Close() error
}

// Clock is the open loop's time source; tests substitute a fake.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// Env says where the benchmark finds what lives outside the process.
type Env struct {
	// Promptd is the promptd binary. Empty runs a sharded workload over
	// in-process loopback shards instead (the smoke test's mode).
	Promptd string
	// TmpRoot holds the shard socket directories.
	TmpRoot string
}

// BuildFunc constructs the stream under test; topo is nil for an
// in-process workload.
type BuildFunc func(w Workload, topo *prompt.Topology) (Stream, error)

// BuildPublic is the BuildFunc of every end-to-end run: the public
// constructor and nothing else.
func BuildPublic(w Workload, topo *prompt.Topology) (Stream, error) {
	return prompt.NewWithOptions(w.Query(), w.Options(topo)...)
}

// runChunk is how many batches one pipelined Run call drives in the
// closed loop of a sharded workload; the pipeline drains once per call.
const runChunk = 20

// state-churn's action schedule, as offsets into a chunk of a phase
// (closed or open; the index restarts with every chunk): a checkpoint
// follows the batches at offsets 2 and 17 and a rescale the batch at
// offset 5, so every round does the same work. In the open loop the
// hand-off stalls batch 6 for about 0.6 s and the queue behind it
// drains by about batch 15: those ten batches are 40 % of a 25-batch
// chunk — far enough above 5 % that delay_ms_p95 sits inside the group,
// far enough below 50 % that delay_ms_p50 sits outside it — and both
// checkpoints fall outside the drain.
const rescaleAt = 5

var checkpointAt = [...]int{2, 17}

// Runner drives one constructed stream through the benchmark's phases.
type Runner struct {
	W     Workload
	Seed  int64
	Cycle *Cycle
	St    Stream
	Trace *Trace // non-nil in a traced run: state actions record spans

	// SetupTime covers generating the cycle, starting and dialing the
	// shards, constructing the stream and the warm-up batches.
	SetupTime time.Duration

	Attempted, Failed int // operations: submitted batches and state actions

	shards *ShardSet
	churn  *prompt.Stream // St, for the workload that calls the state API
	clock  Clock
	bufs   [4][]prompt.Tuple // re-stamp targets, rotated so a pipelined Run never sees its input overwritten
	next   int               // cycle entries submitted so far

	recent     []int  // the entries still inside the window, oldest first
	lastImage  []byte // most recent checkpoint
	sinceImage []int  // entries submitted after lastImage was taken
	restamps   []float64

	// Measured by the state actions and the answer check, for the
	// per-layer report.
	CheckpointBytes int
	RestoreTime     time.Duration
	afterRescale    bool
}

// Setup generates the input, starts what the workload needs, builds the
// stream and warms it with two windows of batches.
func Setup(w Workload, seed int64, env Env, build BuildFunc) (*Runner, error) {
	start := time.Now()
	r := &Runner{W: w, Seed: seed, clock: wallClock{}}
	r.Cycle = Generate(w, seed)
	var topo *prompt.Topology
	if w.Shards > 0 {
		if env.Promptd == "" {
			topo = &prompt.Topology{Local: w.Shards}
		} else {
			ss, err := StartShards(env.Promptd, env.TmpRoot, w.Shards, "wordcount")
			if err != nil {
				return nil, err
			}
			r.shards = ss
			topo = &prompt.Topology{Shards: ss.Addrs}
		}
	}
	st, err := build(w, topo)
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("constructing the %s stream: %w", w.Name, err)
	}
	r.St = st
	if w.Churn {
		ps, ok := st.(*prompt.Stream)
		if !ok {
			r.Close()
			return nil, fmt.Errorf("%s needs a *prompt.Stream for its state actions, got %T", w.Name, st)
		}
		r.churn = ps
	}
	for i := 0; i < WarmupBatches; i++ {
		if _, _, err := r.submit(r.prepare(r.St.Now())); err != nil {
			r.Close()
			return nil, fmt.Errorf("warm-up batch %d: %w", i, err)
		}
	}
	r.Attempted, r.Failed = 0, 0 // warm-up is set-up, not a measured operation
	r.SetupTime = time.Since(start)
	return r, nil
}

// Close ends the stream and its shard processes.
func (r *Runner) Close() {
	if r.St != nil {
		_ = r.St.Close() // the shards are killed next; a close error changes nothing
		r.St = nil
	}
	if r.shards != nil {
		r.shards.Stop()
		r.shards = nil
	}
}

// Pids lists this process (0) and the shard processes, for CPUSeconds
// and PeakRSSMB.
func (r *Runner) Pids() []int {
	pids := []int{0}
	if r.shards != nil {
		pids = append(pids, r.shards.Pids()...)
	}
	return pids
}

// ShardPids lists only the shard processes.
func (r *Runner) ShardPids() []int { return r.Pids()[1:] }

// prepare re-stamps the next cycle entry to start at now and notes it
// as submitted. The copy is the generator's cost, made outside the
// timed call.
func (r *Runner) prepare(now prompt.Time) []prompt.Tuple {
	t0 := time.Now()
	slot := r.next % len(r.bufs)
	r.bufs[slot] = r.Cycle.Restamp(r.bufs[slot], r.next, now)
	r.recent = append(r.recent, r.next)
	if len(r.recent) > WindowBatches {
		r.recent = r.recent[1:]
	}
	r.sinceImage = append(r.sinceImage, r.next)
	r.next++
	r.restamps = append(r.restamps, ms(time.Since(t0)))
	return r.bufs[slot]
}

// judge counts one batch operation and whether it failed: an error,
// dropped tuples, or a shard that is down all count.
func (r *Runner) judge(rep prompt.BatchReport, err error) {
	r.Attempted++
	if err != nil || rep.TuplesDropped > 0 || r.St.ShardsDown() > 0 {
		r.Failed++
	}
}

// submit processes one prepared batch, counts it as an operation, and
// returns its report and the wall time of the call alone.
func (r *Runner) submit(tuples []prompt.Tuple) (prompt.BatchReport, time.Duration, error) {
	t0 := time.Now()
	rep, err := r.St.ProcessBatch(tuples)
	wall := time.Since(t0)
	r.judge(rep, err)
	return rep, wall, err
}

// actions runs state-churn's reads of the state that batch i of the
// current chunk just wrote: a top-k every batch, a checkpoint at
// offsets 2 and 17, and at offset 5 a rescale that alternates between
// two owners and one. It returns their total wall time.
func (r *Runner) actions(i int) (time.Duration, error) {
	var total time.Duration
	act := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		total += t1.Sub(t0)
		r.Attempted++
		if err != nil {
			r.Failed++
			return fmt.Errorf("%s after batch %d: %w", name, i, err)
		}
		if r.Trace != nil {
			r.Trace.Add(Span{Name: name, Start: t0, End: t1, Parent: -1, Batch: r.next - 1, Lane: LaneAction})
		}
		return nil
	}
	if err := act("window.topk", func() error {
		top, err := r.churn.TopK(TopKSize)
		if err == nil && len(top) != TopKSize {
			err = fmt.Errorf("TopK(%d) returned %d entries", TopKSize, len(top))
		}
		return err
	}); err != nil {
		return total, err
	}
	if i == checkpointAt[0] || i == checkpointAt[1] {
		if err := act("checkpoint.encode", func() error {
			img, err := r.churn.Checkpoint()
			if err == nil {
				r.lastImage, r.sinceImage = img, r.sinceImage[:0]
				r.CheckpointBytes = len(img)
			}
			return err
		}); err != nil {
			return total, err
		}
	}
	if i == rescaleAt {
		if err := act("migrate.rescale", func() error {
			owners := 2
			if r.churn.Owners() == 2 {
				owners = 1
			}
			r.afterRescale = true
			return r.churn.Rescale(owners)
		}); err != nil {
			return total, err
		}
	}
	return total, nil
}

// RunBatches drives n batches through one Run call — pipelined when the
// stream's depth is above 1 — and returns their reports and the call's
// wall time, which includes the source callback's re-stamp copies.
func (r *Runner) RunBatches(n int) ([]prompt.BatchReport, time.Duration, error) {
	src := func(start, _ prompt.Time) ([]prompt.Tuple, error) { return r.prepare(start), nil }
	t0 := time.Now()
	reps, err := r.St.Run(src, n)
	wall := time.Since(t0)
	for _, rep := range reps {
		r.judge(rep, nil)
	}
	if err != nil {
		r.judge(prompt.BatchReport{}, err)
	}
	return reps, wall, err
}

// Migrations is how many slot hand-offs the stream's rescales applied
// (0 for a workload without state actions).
func (r *Runner) Migrations() int {
	if r.churn == nil {
		return 0
	}
	return r.churn.Migrations()
}

// ClosedResult is what the closed loop measured.
type ClosedResult struct {
	Batches int
	Tuples  int
	Wall    time.Duration // summed wall time of the timed calls (batches and state actions)
	CPU     float64       // user+system seconds of the driver and every shard over the phase
	// BatchMS is the wall time of each ProcessBatch call; for a sharded
	// workload, of each Run call divided by its batches.
	BatchMS []float64
	// StallMS is the wall time of each batch that carried a rescale's
	// hand-off (the first batch after a Rescale call).
	StallMS []float64
	// Quality and BucketBSI are those of the first full cycle of the
	// phase: deterministic for a seed, whatever the phase's length.
	Quality   prompt.QualityReport
	BucketBSI float64
	Approx    int // BatchReport.ApproxBytes of the last batch
	Mem       MemDelta
}

// Add pools another chunk's result into c. Quality and BucketBSI keep
// the first chunk's values.
func (c *ClosedResult) Add(o ClosedResult) {
	if c.Batches == 0 {
		c.Quality, c.BucketBSI = o.Quality, o.BucketBSI
	}
	c.Batches += o.Batches
	c.Tuples += o.Tuples
	c.Wall += o.Wall
	c.CPU += o.CPU
	c.BatchMS = append(c.BatchMS, o.BatchMS...)
	c.StallMS = append(c.StallMS, o.StallMS...)
	c.Approx = o.Approx
	c.Mem.Mallocs += o.Mem.Mallocs
	c.Mem.Bytes += o.Mem.Bytes
	c.Mem.GCCycles += o.Mem.GCCycles
	c.Mem.GCPause += o.Mem.GCPause
}

// MemDelta is the change in the Go runtime's allocation and collection
// counters over a phase.
type MemDelta struct {
	Mallocs, Bytes uint64
	GCCycles       uint32
	GCPause        time.Duration
}

func memDelta(a, b *runtime.MemStats) MemDelta {
	return MemDelta{
		Mallocs:  b.Mallocs - a.Mallocs,
		Bytes:    b.TotalAlloc - a.TotalAlloc,
		GCCycles: b.NumGC - a.NumGC,
		GCPause:  time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// Closed runs n batches in a closed loop: each batch is submitted as
// soon as the previous one (and its state actions) returned. A
// sharded workload goes through Run, a chunk of batches per call, so
// that the pipeline overlaps consecutive batches exactly as `promptd
// coord -pipeline 2` does; everything else goes through ProcessBatch.
func (r *Runner) Closed(n int) (ClosedResult, error) {
	var res ClosedResult
	var bsi, bci, ksr, bbsi float64
	quality := 0
	note := func(rep prompt.BatchReport) {
		if quality < r.W.CycleLen {
			bsi += rep.Quality.BSI
			bci += rep.Quality.BCI
			ksr += rep.Quality.KSR
			bbsi += rep.BucketBSI
			quality++
		}
		res.Approx = rep.ApproxBytes
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := CPUSeconds(r.Pids()...)
	for i := 0; res.Batches < n; i++ {
		if r.W.Shards > 0 {
			reps, wall, err := r.RunBatches(min(runChunk, n-res.Batches))
			for _, rep := range reps {
				note(rep)
				res.Tuples += rep.Tuples
			}
			if err != nil {
				return res, fmt.Errorf("closed loop, Run call %d: %w", i, err)
			}
			res.Batches += len(reps)
			res.Wall += wall
			res.BatchMS = append(res.BatchMS, ms(wall)/float64(len(reps)))
			continue
		}
		tuples := r.prepare(r.St.Now())
		stalled := r.afterRescale
		r.afterRescale = false
		rep, wall, err := r.submit(tuples)
		if err != nil {
			return res, fmt.Errorf("closed loop, batch %d: %w", i, err)
		}
		note(rep)
		res.Batches++
		res.Tuples += rep.Tuples
		res.Wall += wall
		res.BatchMS = append(res.BatchMS, ms(wall))
		if stalled {
			res.StallMS = append(res.StallMS, ms(wall))
		}
		if r.W.Churn {
			d, err := r.actions(i)
			res.Wall += d
			if err != nil {
				return res, err
			}
		}
	}
	res.CPU = CPUSeconds(r.Pids()...) - cpu0
	runtime.ReadMemStats(&m1)
	res.Mem = memDelta(&m0, &m1)
	if quality > 0 {
		q := float64(quality)
		res.Quality = prompt.QualityReport{BSI: bsi / q, BCI: bci / q, KSR: ksr / q}
		res.BucketBSI = bbsi / q
	}
	return res, nil
}

// OpenResult is what the open loop measured.
type OpenResult struct {
	Batches int
	// DelayMS is, per batch, the time from the moment the batch was due
	// (its interval closed: the creation time of its last event) to the
	// moment the call that processed it returned.
	DelayMS []float64
	// StartLagMS is how long after its due time each batch was submitted.
	StartLagMS []float64
	BatchMS    []float64
	StallMS    []float64
	// MaxBacklog is the largest number of further batches already due
	// when a batch was submitted; Late counts batches whose delay
	// exceeded one interval.
	MaxBacklog int
	Late       int
	Wall       time.Duration
}

// Add pools another chunk's result into o.
func (o *OpenResult) Add(p OpenResult) {
	o.Batches += p.Batches
	o.DelayMS = append(o.DelayMS, p.DelayMS...)
	o.StartLagMS = append(o.StartLagMS, p.StartLagMS...)
	o.BatchMS = append(o.BatchMS, p.BatchMS...)
	o.StallMS = append(o.StallMS, p.StallMS...)
	o.MaxBacklog = max(o.MaxBacklog, p.MaxBacklog)
	o.Late += p.Late
	o.Wall += p.Wall
}

// Open runs n batches on a fixed schedule, one every Interval, from one
// goroutine. Batch i is due at t0 + (i+1)·Interval. The driver sleeps
// until then if it is idle and never skips a batch, and delay is
// counted from the due time, so a stall is charged to every batch that
// queued behind it.
func (r *Runner) Open(n int) (OpenResult, error) {
	runtime.GC()
	var tuples []prompt.Tuple
	var actionErr error
	res, err := openLoop(r.clock, n, Interval,
		func(int) { tuples = r.prepare(r.St.Now()) },
		func(i int) (time.Duration, bool, error) {
			stalled := r.afterRescale
			r.afterRescale = false
			_, wall, err := r.submit(tuples)
			return wall, stalled, err
		},
		func(i int) {
			if r.W.Churn && actionErr == nil {
				_, actionErr = r.actions(i)
			}
		})
	if err == nil {
		err = actionErr
	}
	return res, err
}

// openLoop is the schedule arithmetic of Open, separated from the
// stream so a fake clock can test it. prepare readies batch i (before
// its due time when the driver is ahead), submit processes it and
// returns the call's wall time and whether it carried a hand-off, and
// after runs whatever follows the batch's result (state actions), which
// delays the batches behind it but not the batch itself.
func openLoop(clk Clock, n int, interval time.Duration,
	prepare func(i int),
	submit func(i int) (wall time.Duration, stalled bool, err error),
	after func(i int)) (OpenResult, error) {

	var res OpenResult
	t0 := clk.Now()
	for i := 0; i < n; i++ {
		prepare(i)
		due := t0.Add(time.Duration(i+1) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		start := clk.Now()
		if backlog := int(start.Sub(due) / interval); backlog > res.MaxBacklog {
			res.MaxBacklog = backlog
		}
		wall, stalled, err := submit(i)
		if err != nil {
			return res, fmt.Errorf("open loop, batch %d: %w", i, err)
		}
		delay := clk.Now().Sub(due)
		res.Batches++
		res.DelayMS = append(res.DelayMS, ms(delay))
		res.StartLagMS = append(res.StartLagMS, ms(start.Sub(due)))
		res.BatchMS = append(res.BatchMS, ms(wall))
		if stalled {
			res.StallMS = append(res.StallMS, ms(wall))
		}
		if delay > interval {
			res.Late++
		}
		after(i)
	}
	res.Wall = clk.Now().Sub(t0)
	return res, nil
}

// RestampMS is the cost of each re-stamp copy made so far.
func (r *Runner) RestampMS() []float64 { return r.restamps }
