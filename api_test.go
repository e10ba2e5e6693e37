package prompt_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"prompt"
)

func TestParseScheme(t *testing.T) {
	cases := []struct {
		in   string
		want prompt.Scheme
	}{
		{"", prompt.SchemePrompt},
		{"prompt", prompt.SchemePrompt},
		{"prompt-postsort", prompt.SchemePromptPostSort},
		{"hash", prompt.SchemeHash},
		{"time", prompt.SchemeTime},
		{"shuffle", prompt.SchemeShuffle},
		{"pk2", prompt.SchemePK2},
		{"pk5", prompt.SchemePK5},
		{"cam", prompt.SchemeCAM},
		{"ffd", prompt.SchemeFFD},
		{"fragmin", prompt.SchemeFragMin},
	}
	for _, c := range cases {
		got, err := prompt.ParseScheme(c.in)
		if err != nil {
			t.Fatalf("ParseScheme(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseScheme(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := prompt.ParseScheme("nosuch"); !errors.Is(err, prompt.ErrBadConfig) {
		t.Errorf("ParseScheme(nosuch) error = %v, want ErrBadConfig", err)
	}
}

func TestSchemesRoundTrip(t *testing.T) {
	schemes := prompt.Schemes()
	if len(schemes) != len(prompt.SchemeNames()) {
		t.Fatalf("Schemes/SchemeNames length mismatch: %d vs %d", len(schemes), len(prompt.SchemeNames()))
	}
	for _, s := range schemes {
		got, err := prompt.ParseScheme(string(s))
		if err != nil || got != s {
			t.Errorf("scheme %q does not round-trip: %q, %v", s, got, err)
		}
	}
	var zero prompt.Scheme
	if zero.String() != "prompt" {
		t.Errorf("zero Scheme.String() = %q, want prompt", zero.String())
	}
}

func TestNewWrapsErrBadConfig(t *testing.T) {
	bad := []prompt.Config{
		{Scheme: "nosuch"},
		{BatchInterval: -time.Second},
	}
	for _, cfg := range bad {
		if _, err := prompt.New(cfg, prompt.WordCount(time.Minute, time.Second)); !errors.Is(err, prompt.ErrBadConfig) {
			t.Errorf("New(%+v) error = %v, want ErrBadConfig", cfg, err)
		}
	}
	if _, err := prompt.NewMulti(prompt.Config{}); !errors.Is(err, prompt.ErrBadConfig) {
		t.Errorf("NewMulti with no queries: %v, want ErrBadConfig", err)
	}
}

func TestNewWithOptions(t *testing.T) {
	st, err := prompt.NewWithOptions(prompt.WordCount(time.Minute, time.Second),
		prompt.WithBatchInterval(500*time.Millisecond),
		prompt.WithParallelism(16, 12),
		prompt.WithScheme(prompt.SchemeHash),
		prompt.WithCores(16),
		prompt.WithWorkers(4),
		prompt.WithEarlyRelease(0.05),
		prompt.WithValidation(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if st.SchemeName() != "hash" {
		t.Errorf("scheme = %q, want hash", st.SchemeName())
	}
	if got := st.BatchInterval(); got.Seconds() != 0.5 {
		t.Errorf("batch interval = %v, want 0.5s", got)
	}
}

func TestOptionsValidateEagerly(t *testing.T) {
	bad := []prompt.Option{
		prompt.WithBatchInterval(0),
		prompt.WithBatchInterval(-time.Second),
		prompt.WithParallelism(0, 4),
		prompt.WithParallelism(4, -1),
		prompt.WithScheme("nosuch"),
		prompt.WithCores(0),
		prompt.WithEarlyRelease(-0.1),
		prompt.WithEarlyRelease(0.6),
	}
	for i, opt := range bad {
		if _, err := prompt.NewWithOptions(prompt.WordCount(time.Minute, time.Second), opt); !errors.Is(err, prompt.ErrBadConfig) {
			t.Errorf("bad option %d: error = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestHasWindowAndErrNoWindow(t *testing.T) {
	windowed := testStream(t, prompt.SchemePrompt)
	if !windowed.HasWindow() {
		t.Error("sliding word count reports HasWindow() = false")
	}

	perBatch, err := prompt.New(prompt.Config{}, prompt.PerBatch("count", nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if perBatch.HasWindow() {
		t.Error("per-batch query reports HasWindow() = true")
	}
	if _, err := perBatch.TopK(3); !errors.Is(err, prompt.ErrNoWindow) {
		t.Errorf("TopK on windowless stream: %v, want ErrNoWindow", err)
	}
}

func TestMultiStreamHasWindowAndErrNoWindow(t *testing.T) {
	m, err := prompt.NewMulti(prompt.Config{},
		prompt.WordCount(time.Minute, time.Second),
		prompt.PerBatch("count", nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if has, err := m.HasWindow(0); err != nil || !has {
		t.Errorf("HasWindow(0) = %v, %v; want true", has, err)
	}
	if has, err := m.HasWindow(1); err != nil || has {
		t.Errorf("HasWindow(1) = %v, %v; want false", has, err)
	}
	if _, err := m.HasWindow(2); err == nil {
		t.Error("HasWindow(2) accepted out-of-range index")
	}
	if _, err := m.TopK(1, 3); !errors.Is(err, prompt.ErrNoWindow) {
		t.Errorf("TopK on windowless query: %v, want ErrNoWindow", err)
	}
}

func TestStreamSetWorkersMidRun(t *testing.T) {
	st := testStream(t, prompt.SchemePrompt)
	ref := testStream(t, prompt.SchemePrompt)
	for batch := 0; batch < 4; batch++ {
		if err := st.Reconfigure(prompt.WithWorkers(batch % 3)); err != nil { // 0, 1, 2, 0 workers
			t.Fatal(err)
		}
		tuples := apiTestBatch(st, batch)
		if _, err := st.ProcessBatch(tuples); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ProcessBatch(apiTestBatch(ref, batch)); err != nil {
			t.Fatal(err)
		}
	}
	got, want := st.Window(), ref.Window()
	if len(got) != len(want) {
		t.Fatalf("window size %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %s = %v, want %v", k, got[k], v)
		}
	}
}

// apiTestBatch deterministically fills one batch interval of the stream.
func apiTestBatch(st *prompt.Stream, batch int) []prompt.Tuple {
	start := st.Now()
	keys := []string{"a", "b", "c", "d", "e"}
	tuples := make([]prompt.Tuple, 0, 200)
	for i := 0; i < 200; i++ {
		ts := start + prompt.Time(i)*st.BatchInterval()/200
		tuples = append(tuples, prompt.NewTuple(ts, keys[(i+batch)%len(keys)], 1))
	}
	return tuples
}

// streamAPI is the surface Stream and MultiStream share through the
// embedded core: one construction path, one batch lifecycle, one
// reconfiguration and elasticity story.
type streamAPI interface {
	SchemeName() string
	Now() prompt.Time
	BatchInterval() prompt.Time
	Parallelism() (int, int)
	ProcessBatch([]prompt.Tuple) (prompt.BatchReport, error)
	Run(prompt.BatchSource, int) ([]prompt.BatchReport, error)
	Reports() []prompt.BatchReport
	Reconfigure(...prompt.Option) error
	SetCores(int) error
	SetObserver(prompt.Observer)
	Rescale(int) error
	Owners() int
	Migrations() int
	Checkpoint() ([]byte, error)
	Close() error
}

// surfaceBatch fills one batch interval for any stream type.
func surfaceBatch(s streamAPI, batch, n int) []prompt.Tuple {
	start, interval := s.Now(), s.BatchInterval()
	keys := []string{"a", "b", "c", "d", "e", "f", "g"}
	tuples := make([]prompt.Tuple, 0, n)
	for i := 0; i < n; i++ {
		ts := start + prompt.Time(i)*interval/prompt.Time(n)
		tuples = append(tuples, prompt.NewTuple(ts, keys[(i+batch)%len(keys)], 1))
	}
	return tuples
}

// apiConstructors builds each public stream type through its options-first
// constructor with identical settings.
func apiConstructors(opts ...prompt.Option) map[string]func() (streamAPI, error) {
	q := prompt.WordCount(time.Minute, time.Second)
	return map[string]func() (streamAPI, error){
		"stream": func() (streamAPI, error) { return prompt.NewWithOptions(q, opts...) },
		"multi": func() (streamAPI, error) {
			return prompt.NewMultiWithOptions([]prompt.Query{q, prompt.PerBatch("count", nil, nil, nil)}, opts...)
		},
	}
}

// TestUnifiedSurface drives the shared surface table-style over both
// stream types: runtime reconfiguration applies, construction-time
// changes are rejected wholesale, replaying effective values is a no-op,
// and the deprecated setters still work.
func TestUnifiedSurface(t *testing.T) {
	for name, build := range apiConstructors(prompt.WithParallelism(16, 12)) {
		t.Run(name, func(t *testing.T) {
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if m, r := s.Parallelism(); m != 16 || r != 12 {
				t.Fatalf("Parallelism() = %d, %d; want 16, 12", m, r)
			}

			// Runtime options apply together.
			if err := s.Reconfigure(prompt.WithParallelism(4, 4), prompt.WithWorkers(2), prompt.WithCores(8)); err != nil {
				t.Fatalf("Reconfigure(runtime options): %v", err)
			}
			if m, r := s.Parallelism(); m != 4 || r != 4 {
				t.Fatalf("Parallelism() = %d, %d after Reconfigure; want 4, 4", m, r)
			}

			// Construction-time changes are rejected and nothing is applied.
			for i, bad := range []prompt.Option{
				prompt.WithScheme(prompt.SchemeHash),
				prompt.WithBatchInterval(2 * time.Second),
				prompt.WithValidation(true),
				prompt.WithShards(2),
				prompt.WithElasticity(prompt.ElasticThreshold, 1, 8),
			} {
				if err := s.Reconfigure(bad, prompt.WithParallelism(9, 9)); !errors.Is(err, prompt.ErrBadConfig) {
					t.Fatalf("bad option %d: Reconfigure = %v, want ErrBadConfig", i, err)
				}
				if m, r := s.Parallelism(); m != 4 || r != 4 {
					t.Fatalf("bad option %d changed parallelism to %d, %d", i, m, r)
				}
			}

			// Replaying the effective construction values is a no-op.
			if err := s.Reconfigure(prompt.WithScheme(prompt.SchemePrompt), prompt.WithBatchInterval(time.Second), prompt.WithEarlyRelease(0.05)); err != nil {
				t.Fatalf("Reconfigure(replayed defaults): %v", err)
			}

			// The two setters Reconfigure cannot replace: re-provisioning the
			// same core count, and detaching the observer.
			if err := s.SetCores(8); err != nil {
				t.Fatal(err)
			}
			s.SetObserver(nil)

			// The elastic surface: rescaling applies at the batch boundary.
			if err := s.Rescale(0); !errors.Is(err, prompt.ErrBadConfig) {
				t.Fatalf("Rescale(0) = %v, want ErrBadConfig", err)
			}
			if err := s.Rescale(3); err != nil {
				t.Fatal(err)
			}
			if got := s.Owners(); got != 0 {
				t.Fatalf("Owners() = %d before the batch boundary, want 0", got)
			}
			if _, err := s.ProcessBatch(surfaceBatch(s, 0, 200)); err != nil {
				t.Fatal(err)
			}
			if got := s.Owners(); got != 3 {
				t.Fatalf("Owners() = %d after the batch boundary, want 3", got)
			}
			if s.Migrations() == 0 {
				t.Fatal("Rescale(3) applied no slot migrations")
			}
		})
	}
}

// TestElasticCoresLeaveOwnership: Rescale is the only thing that moves
// key-range ownership. Re-provisioning cores through Reconfigure after a
// Rescale(2) leaves two owners, and no slot moves, at the next batch.
func TestElasticCoresLeaveOwnership(t *testing.T) {
	for name, build := range apiConstructors(prompt.WithCores(4)) {
		t.Run(name, func(t *testing.T) {
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Rescale(2); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ProcessBatch(surfaceBatch(s, 0, 200)); err != nil {
				t.Fatal(err)
			}
			migrations := s.Migrations()
			if err := s.Reconfigure(prompt.WithCores(8)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ProcessBatch(surfaceBatch(s, 1, 200)); err != nil {
				t.Fatal(err)
			}
			if got := s.Owners(); got != 2 {
				t.Fatalf("Owners() = %d after Reconfigure(WithCores(8)), want 2", got)
			}
			if got := s.Migrations(); got != migrations {
				t.Fatalf("Reconfigure(WithCores(8)) moved slots: %d handoffs, want %d", got, migrations)
			}
		})
	}
}

// TestElasticStreamIsAnswerNeutral: an elastic run whose policy actually
// scales mid-stream produces the same windowed answer as a static run of
// the same input.
func TestElasticStreamIsAnswerNeutral(t *testing.T) {
	q := prompt.WordCount(time.Minute, 20*time.Millisecond)
	base := []prompt.Option{
		prompt.WithBatchInterval(20 * time.Millisecond),
		prompt.WithParallelism(2, 2),
		prompt.WithCores(8),
	}
	elastic, err := prompt.NewWithOptions(q, append([]prompt.Option{prompt.WithElasticity(prompt.ElasticThreshold, 1, 8)}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	static, err := prompt.NewWithOptions(q, base...)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 12; batch++ {
		n := 3000 + 3000*batch // ramp into overload so the policy acts
		if _, err := elastic.ProcessBatch(surfaceBatch(elastic, batch, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := static.ProcessBatch(surfaceBatch(static, batch, n)); err != nil {
			t.Fatal(err)
		}
	}
	if elastic.Migrations() == 0 {
		t.Fatal("elastic policy never scaled; the test is vacuous")
	}
	got, want := elastic.Window(), static.Window()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("elastic window diverges from static run:\n got %v\nwant %v", got, want)
	}
}

// TestWithElasticityValidation: option misuse fails construction.
func TestWithElasticityValidation(t *testing.T) {
	q := prompt.WordCount(time.Minute, time.Second)
	bad := [][]prompt.Option{
		{prompt.WithElasticity("nosuch", 1, 8)},
		{prompt.WithElasticity(prompt.ElasticThreshold, 8, 2)},
		{prompt.WithElasticity(prompt.ElasticThreshold, -1, 2)},
		// Initial parallelism outside the declared bounds.
		{prompt.WithElasticity(prompt.ElasticThreshold, 1, 4), prompt.WithParallelism(8, 8)},
	}
	for i, opts := range bad {
		if _, err := prompt.NewWithOptions(q, opts...); !errors.Is(err, prompt.ErrBadConfig) {
			t.Errorf("bad elasticity %d: error = %v, want ErrBadConfig", i, err)
		}
	}
	for _, policy := range prompt.ElasticPolicies() {
		st, err := prompt.NewWithOptions(q, prompt.WithElasticity(policy, 1, 16))
		if err != nil {
			t.Fatalf("policy %q rejected: %v", policy, err)
		}
		st.Close()
		if parsed, err := prompt.ParseElasticPolicy(string(policy)); err != nil || parsed != policy {
			t.Errorf("policy %q does not round-trip: %q, %v", policy, parsed, err)
		}
	}
	if p, err := prompt.ParseElasticPolicy(""); err != nil || p != prompt.ElasticThreshold {
		t.Errorf("ParseElasticPolicy(\"\") = %q, %v; want threshold", p, err)
	}
}
