package experiment

import (
	"fmt"
	"io"

	"prompt/internal/cluster"
	"prompt/internal/core"
	"prompt/internal/elastic"
	"prompt/internal/engine"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// Fig12Point is one batch of the elasticity trace.
type Fig12Point struct {
	Batch       int
	OfferedRate float64 // tuples/s offered by the source this batch
	Throughput  float64 // tuples/s actually processed
	W           float64
	MapTasks    int
	ReduceTasks int
	Cores       int
	Keys        int
	Direction   int // controller decision: +1/-1/0
}

// Fig12Policy scores one auto-scale policy on the Figure 12 trace.
type Fig12Policy struct {
	Policy      string
	Unstable    int     // batches with W > 1: processing outran the interval
	TaskSeconds float64 // Map plus Reduce tasks held, summed over the batches
	TuplesLost  float64 // summed shortfall of processed/s under offered/s
}

// Fig12Result is the full elasticity trace: a rising phase that forces
// scale-out (Figures 12a/12b), then a falling phase that triggers scale-in
// and map/reduce ratio adaptation (Figures 12c/12d). Points is the
// threshold policy's (Algorithm 4's) trace; Policies scores every
// built-in policy on the same workload.
type Fig12Result struct {
	Points   []Fig12Point
	Policies []Fig12Policy
}

// Fig12 regenerates Figure 12: Prompt under the auto-scale controller with
// back-pressure disabled, against a workload whose data rate and key
// cardinality first grow and then fall — once per built-in policy.
func Fig12(p Params) (*Fig12Result, error) {
	res := &Fig12Result{}
	for _, name := range elastic.Names() {
		pts, err := fig12Trace(p, name)
		if err != nil {
			return nil, err
		}
		if name == "threshold" {
			res.Points = pts
		}
		// Batches are one second long, so per-batch task counts and rate
		// shortfalls sum directly to task-seconds and tuples.
		score := Fig12Policy{Policy: name}
		for _, pt := range pts {
			if pt.W > 1 {
				score.Unstable++
			}
			score.TaskSeconds += float64(pt.MapTasks + pt.ReduceTasks)
			if short := pt.OfferedRate - pt.Throughput; short > 0 {
				score.TuplesLost += short
			}
		}
		res.Policies = append(res.Policies, score)
	}
	return res, nil
}

// fig12Trace runs the Figure 12 workload, one-second batches, under the
// named policy.
func fig12Trace(p Params, policy string) ([]Fig12Point, error) {
	const (
		initialTasks = 2
		batches      = 48
	)
	risingEnd := tuple.Time(batches/2) * tuple.Second

	// Rate rises 10x over the first half, then falls back.
	lo, hi := 0.1*float64(p.SearchHi), 0.8*float64(p.SearchHi)
	rate := compositeRamp{
		up:   workload.RampRate{From: lo, To: hi, Start: 0, End: risingEnd},
		down: workload.RampRate{From: hi, To: lo, Start: risingEnd, End: 2 * risingEnd},
		mid:  risingEnd,
	}
	keys, err := workload.NewGrowingSampler("k", p.Cardinality/10, p.Cardinality, 0, risingEnd)
	if err != nil {
		return nil, err
	}
	src := &workload.Source{Name: "elastic", Rate: rate, Keys: keys, Seed: p.Seed}

	cfg := p.engineConfig(core.PromptScheme(), tuple.Second)
	cfg.MapTasks, cfg.ReduceTasks, cfg.Cores = initialTasks, initialTasks, initialTasks
	eng, err := engine.New(cfg, engine.Query{Name: "wordcount", Map: engine.CountMap, Reduce: window.Sum})
	if err != nil {
		return nil, err
	}
	ecfg := elastic.DefaultConfig()
	ecfg.D = 2
	ecfg.MaxMapTasks = p.Cores * 8
	ecfg.MaxReduceTasks = p.Cores * 8
	pol, err := elastic.New(policy, ecfg, cfg.Cost, tuple.Second, initialTasks, initialTasks)
	if err != nil {
		return nil, err
	}
	pool, err := cluster.NewExecutorPool(p.Cores*4, 2, 1)
	if err != nil {
		return nil, err
	}
	driver, err := core.NewElasticDriver(eng, pol, pool)
	if err != nil {
		return nil, err
	}

	pts := make([]Fig12Point, 0, batches)
	for i := 0; i < batches; i++ {
		start := eng.Now()
		end := start + tuple.Second
		ts, err := src.Slice(start, end)
		if err != nil {
			return nil, err
		}
		rep, act, err := driver.Step(ts, start, end)
		if err != nil {
			return nil, err
		}
		// Throughput is the pipeline's completion rate: batching overlaps
		// processing, so while stable (processing <= interval) a batch
		// completes every interval and throughput equals the offered
		// rate; beyond that, processing time is the bottleneck.
		bottleneck := tuple.Second
		if rep.ProcessingTime > bottleneck {
			bottleneck = rep.ProcessingTime
		}
		thr := float64(rep.Tuples) / bottleneck.Seconds()
		pts = append(pts, Fig12Point{
			Batch:       rep.Index,
			OfferedRate: rate.RateAt(start + tuple.Second/2),
			Throughput:  thr,
			W:           rep.W,
			MapTasks:    rep.MapTasks,
			ReduceTasks: rep.ReduceTasks,
			Cores:       rep.Cores,
			Keys:        rep.Keys,
			Direction:   act.Direction,
		})
	}
	return pts, nil
}

// compositeRamp rises then falls.
type compositeRamp struct {
	up, down workload.RampRate
	mid      tuple.Time
}

// RateAt implements workload.RateShape.
func (c compositeRamp) RateAt(t tuple.Time) float64 {
	if t < c.mid {
		return c.up.RateAt(t)
	}
	return c.down.RateAt(t)
}

// Print renders the trace.
func (r *Fig12Result) Print(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Figure 12: Resource Elasticity trace (Prompt, auto-scale on, back-pressure off)")
	fmt.Fprintln(tw, "batch\toffered/s\tprocessed/s\tW\tmap\treduce\tcores\tkeys\taction")
	for _, pt := range r.Points {
		dir := "-"
		switch {
		case pt.Direction > 0:
			dir = "scale-out"
		case pt.Direction < 0:
			dir = "scale-in"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.2f\t%d\t%d\t%d\t%d\t%s\n",
			pt.Batch, fmtF(pt.OfferedRate), fmtF(pt.Throughput), pt.W,
			pt.MapTasks, pt.ReduceTasks, pt.Cores, pt.Keys, dir)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "policy\tW > 1 batches\ttask-s\ttuples lost")
	for _, sc := range r.Policies {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\n", sc.Policy, sc.Unstable, sc.TaskSeconds, sc.TuplesLost)
	}
	tw.Flush()
}
