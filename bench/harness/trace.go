package harness

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"prompt"
)

// Span is one timed interval of a traced run. Parent is the index of
// the span that caused it (-1 for a root); spans of one batch share
// Batch. Lane only groups spans into rows of the trace viewer.
type Span struct {
	Name       string
	Start, End time.Time
	Parent     int
	Batch      int
	Lane       int
	Args       map[string]any
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Viewer lanes.
const (
	LaneBatch = iota + 1
	LaneStage
	LaneAction
	LaneShard0 // shard k is LaneShard0 + k
)

// Trace collects spans in memory; nothing is written until WriteChrome.
// It is safe for concurrent use (pipelined runs deliver observer events
// from two goroutines, and exchanges to different shards overlap).
type Trace struct {
	mu    sync.Mutex
	spans []Span
}

// Add records a span and returns its index.
func (t *Trace) Add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// setInterval moves span id, which Add returned, to [start, end].
func (t *Trace) setInterval(id int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Start, t.spans[id].End = start, end
}

// Len is the number of spans recorded so far: a mark that lets a caller
// later look only at the spans of one phase.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Adopt parents every still-unparented span named child to the span
// named parent of the same batch whose interval contains its start.
// The tap sees an exchange before the observer reports the process
// stage that issued it, so parents can only be resolved afterwards.
func (t *Trace) Adopt(child, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byBatch := map[int][]int{}
	for i, s := range t.spans {
		if s.Name == parent {
			byBatch[s.Batch] = append(byBatch[s.Batch], i)
		}
	}
	for i := range t.spans {
		c := &t.spans[i]
		if c.Name != child || c.Parent >= 0 {
			continue
		}
		for _, pi := range byBatch[c.Batch] {
			p := t.spans[pi]
			if !c.Start.Before(p.Start) && !c.Start.After(p.End) {
				c.Parent = pi
				break
			}
		}
	}
}

// SelfTimes returns, for every span named name at index from or later,
// its duration minus the part of it that its direct children cover
// (overlapping children are counted once), in milliseconds. all is the
// whole trace, because Parent indexes into it.
func SelfTimes(all []Span, from int, name string) []float64 {
	children := map[int][]Span{}
	for _, s := range all[from:] {
		if s.Parent >= from {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for i := from; i < len(all); i++ {
		s := all[i]
		if s.Name != name {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start.Before(kids[b].Start) })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo.Before(edge) {
				lo = edge
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				edge = hi
			}
		}
		out = append(out, ms(s.Dur()-covered))
	}
	return out
}

// Durations returns the lengths in milliseconds of the spans named name
// at index from or later.
func Durations(all []Span, from int, name string) []float64 {
	var out []float64
	for _, s := range all[from:] {
		if s.Name == name {
			out = append(out, ms(s.Dur()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// WriteChrome writes the spans as Chrome trace-event JSON (open it in
// chrome://tracing or https://ui.perfetto.dev).
func (t *Trace) WriteChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	spans := t.Spans()
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		args := map[string]any{"batch": s.Batch, "parent": s.Parent, "span": i}
		for k, v := range s.Args {
			args[k] = v
		}
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane, Args: args,
			TS:  float64(s.Start.Sub(t0)) / float64(time.Microsecond),
			Dur: float64(s.Dur()) / float64(time.Microsecond),
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanObserver turns the engine's lifecycle callbacks into spans: one
// `batch` span per batch with an `engine.<stage>` child per stage. A
// stage's start is the callback time minus the wall time the engine
// measured for it.
type spanObserver struct {
	tr *Trace
	mu sync.Mutex
	// open maps an in-flight batch to its span; with pipelining two
	// batches are open at once.
	open map[int]int
}

// NewSpanObserver returns an Observer recording into tr.
func NewSpanObserver(tr *Trace) prompt.Observer {
	return &spanObserver{tr: tr, open: map[int]int{}}
}

func (o *spanObserver) OnBatchStart(e prompt.BatchStart) {
	now := time.Now()
	id := o.tr.Add(Span{Name: "batch", Start: now, End: now, Parent: -1, Batch: e.Batch, Lane: LaneBatch})
	o.mu.Lock()
	o.open[e.Batch] = id
	o.mu.Unlock()
}

func (o *spanObserver) OnStageEnd(e prompt.StageEnd) {
	now := time.Now()
	o.mu.Lock()
	parent, ok := o.open[e.Batch]
	o.mu.Unlock()
	if !ok {
		parent = -1
	}
	o.tr.Add(Span{Name: "engine." + e.Stage, Start: now.Add(-e.Wall), End: now, Parent: parent, Batch: e.Batch, Lane: LaneStage})
}

func (o *spanObserver) OnBatchEnd(e prompt.BatchEnd) {
	now := time.Now()
	o.mu.Lock()
	id, ok := o.open[e.Batch]
	delete(o.open, e.Batch)
	o.mu.Unlock()
	if !ok {
		return
	}
	o.tr.setInterval(id, now.Add(-e.Wall), now)
}

func (o *spanObserver) OnTaskRetry(prompt.TaskRetry) {}
func (o *spanObserver) OnRecovery(prompt.Recovery)   {}
func (o *spanObserver) OnDrop(prompt.Drop)           {}
func (o *spanObserver) OnApprox(prompt.Approx)       {}
