package prompt_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"prompt"
	"prompt/internal/tuple"
)

// receiverConfig is the shared configuration of the column-edge tests.
func receiverConfig() prompt.Config {
	return prompt.Config{
		BatchInterval: time.Second,
		MapTasks:      4,
		ReduceTasks:   4,
		Validate:      true,
	}
}

// TestReceiverProcessReceived pushes each batch through concurrent
// producers feeding the lock-free rings and checks the stream's answers
// against a single-goroutine ProcessBatch reference. Tuples are dealt to
// producers round-robin, so the drained order differs from arrival
// order — reports must not care (batch results are order-independent
// within an interval).
func TestReceiverProcessReceived(t *testing.T) {
	const producers, batches = 3, 4
	rowSt, err := prompt.New(receiverConfig(), prompt.WordCount(5*time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	colSt, err := prompt.New(receiverConfig(), prompt.WordCount(5*time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rowSrc, colSrc := zipfSource(t, 13), zipfSource(t, 13)
	recv := prompt.NewReceiver(producers, 64)

	for b := 0; b < batches; b++ {
		start, end := rowSt.Now(), rowSt.Now()+tuple.Second
		tuples, err := rowSrc.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rowSt.ProcessBatch(tuples); err != nil {
			t.Fatal(err)
		}

		tuples2, err := colSrc.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		if b > 0 {
			recv.Reset()
		}
		rep, err := pushAndProcess(t, colSt, recv, tuples2)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tuples != len(tuples2) {
			t.Fatalf("batch %d: receiver processed %d tuples, want %d", b, rep.Tuples, len(tuples2))
		}
	}
	if !reflect.DeepEqual(colSt.Window(), rowSt.Window()) {
		t.Error("receiver-fed window diverges from the ProcessBatch reference")
	}
}

// pushAndProcess deals tuples round-robin to the receiver's producers on
// their own goroutines while the stream drains and processes the batch.
func pushAndProcess(t *testing.T, st *prompt.Stream, recv *prompt.Receiver, tuples []prompt.Tuple) (prompt.BatchReport, error) {
	t.Helper()
	producers := recv.Producers()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			prod := recv.Producer(p)
			defer prod.Close()
			for i := p; i < len(tuples); i += producers {
				if !prod.Push(tuples[i]) {
					t.Error("push on open producer failed")
					return
				}
			}
		}(p)
	}
	rep, err := st.ProcessReceived(recv)
	wg.Wait()
	return rep, err
}

// wideWeightBatch is one batch interval whose middle tuple's weight does
// not fit the engine's int32 weight column.
func wideWeightBatch(now prompt.Time) []prompt.Tuple {
	return []prompt.Tuple{
		prompt.NewTuple(now, "a", 1),
		{TS: now + 1, Key: "b", Val: 1, Weight: 1 << 31},
		prompt.NewTuple(now+2, "c", 1),
	}
}

// TestWideWeightRejectedAtEveryEdge is the regression test for weights
// silently narrowed to int32 by the transpose: ProcessBatch, Run (at
// depths 1 and 2), and ProcessReceived on a Stream, and ProcessBatch on a
// MultiStream, must return ErrWeightOverflow and commit nothing — Now is
// unchanged and the next valid batch still processes.
func TestWideWeightRejectedAtEveryEdge(t *testing.T) {
	type edge struct {
		name string
		now  func() prompt.Time
		call func(batch []prompt.Tuple) error
	}
	var edges []edge
	for _, depth := range []int{1, 2} {
		st, err := prompt.NewWithOptions(prompt.WordCount(5*time.Second, time.Second), prompt.WithPipelineDepth(depth))
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, edge{fmt.Sprintf("Stream.Run/depth%d", depth), st.Now, func(b []prompt.Tuple) error {
			_, err := st.Run(prompt.FixedBatches(b), 1)
			return err
		}})
	}
	st, err := prompt.New(receiverConfig(), prompt.WordCount(5*time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	edges = append(edges, edge{"Stream.ProcessBatch", st.Now, func(b []prompt.Tuple) error {
		_, err := st.ProcessBatch(b)
		return err
	}})
	recvSt, err := prompt.New(receiverConfig(), prompt.WordCount(5*time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	recv := prompt.NewReceiver(2, 4)
	edges = append(edges, edge{"Stream.ProcessReceived", recvSt.Now, func(b []prompt.Tuple) error {
		recv.Reset()
		_, err := pushAndProcess(t, recvSt, recv, b)
		return err
	}})
	ms, err := prompt.NewMulti(receiverConfig(), prompt.WordCount(5*time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	edges = append(edges, edge{"MultiStream.ProcessBatch", ms.Now, func(b []prompt.Tuple) error {
		_, err := ms.ProcessBatch(b)
		return err
	}})

	for _, e := range edges {
		before := e.now()
		if err := e.call(wideWeightBatch(before)); !errors.Is(err, prompt.ErrWeightOverflow) {
			t.Errorf("%s: got %v, want ErrWeightOverflow", e.name, err)
		}
		if got := e.now(); got != before {
			t.Errorf("%s: Now moved from %v to %v on a rejected batch", e.name, before, got)
		}
		if err := e.call([]prompt.Tuple{prompt.NewTuple(before, "a", 1)}); err != nil {
			t.Errorf("%s: valid batch after the rejection: %v", e.name, err)
		}
	}
}
