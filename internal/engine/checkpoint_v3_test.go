package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
	"time"

	"prompt/internal/approx"
	"prompt/internal/backpressure"
	"prompt/internal/codec"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

var updateCheckpoint = flag.Bool("update-checkpoint", false,
	"rewrite testdata/checkpoint_v3.bin from the golden scenario")

const goldenCheckpointFile = "testdata/checkpoint_v3.bin"

func goldenConfig() Config {
	cfg := testConfig()
	cfg.Approx = approx.Spec{Kind: approx.CountMinKind, Depth: 2, Width: 16}
	return cfg
}

func goldenQueries() []Query {
	return []Query{
		WordCount(window.Sliding(3*tuple.Second, tuple.Second)),
		SumQuery("sum", window.Sliding(2*tuple.Second, tuple.Second)),
	}
}

// goldenCheckpoint runs the golden scenario under a frozen clock and
// returns its checkpoint: two queries, a jittered stream through a reorder
// buffer that still holds tuples, a throttle below its maximum, a count-min
// tier, and a rescale to two owners completed at batch 2.
func goldenCheckpoint(t testing.TB) []byte {
	t.Helper()
	restore := StubClock(func() time.Time { return time.Unix(0, 0) })
	defer restore()
	keys, err := workload.NewUniformSampler("k", 12)
	if err != nil {
		t.Fatal(err)
	}
	inner := &workload.Source{Name: "golden", Rate: workload.ConstantRate(40), Keys: keys, Seed: 5}
	src, err := workload.NewJittered(inner, 400*tuple.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReorderer(200 * tuple.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewMulti(goldenConfig(), goldenQueries())
	if err != nil {
		t.Fatal(err)
	}
	th := backpressure.NewAIMD()
	th.Observe(false)
	eng.AttachThrottle(th)
	for i := 0; i < 4; i++ {
		reps, err := eng.RunReordered(src, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		th.Observe(reps[0].Stable)
		if i == 1 {
			if err := eng.Rescale(2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r.Pending() == 0 || th.Factor >= th.Max || eng.Migrations() == 0 || eng.Owners() != 2 {
		t.Fatalf("golden scenario lost a feature: pending %d, factor %v, migrations %d, owners %d",
			r.Pending(), th.Factor, eng.Migrations(), eng.Owners())
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenCheckpointV3 pins the version-3 layout: today's engine writes
// exactly the committed bytes for the golden scenario, restores them, and
// checkpoints the restored engine to the same bytes. Regenerate the file
// with -update-checkpoint only together with a version bump.
func TestGoldenCheckpointV3(t *testing.T) {
	got := goldenCheckpoint(t)
	if *updateCheckpoint {
		if err := os.WriteFile(goldenCheckpointFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenCheckpointFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the golden scenario checkpoints to %d bytes that differ from the committed %d", len(got), len(want))
	}
	e, err := Restore(goldenConfig(), goldenQueries(), bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if e.Reorderer().Pending() == 0 || e.Throttle() == nil || e.Owners() != 2 || e.ApproxStateOf(1).Kind() != approx.CountMinKind {
		t.Fatal("restored engine lost part of the golden state")
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("the restored golden engine checkpoints differently")
	}
}

// TestRestoreRejectsV2GobCheckpoint: testdata/checkpoint_v2.gob is the
// golden scenario as the last gob-writing engine checkpointed it (layout
// version 2). There is no migration path; it fails with the typed error.
func TestRestoreRejectsV2GobCheckpoint(t *testing.T) {
	old, err := os.ReadFile("testdata/checkpoint_v2.gob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(goldenConfig(), goldenQueries(), bytes.NewReader(old)); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("restoring a version-2 gob checkpoint: error %v, want ErrCheckpointVersion", err)
	}
}

// TestRestoreRejectsCorruptSections: a flipped payload bit fails its
// section's CRC, and a cut or extended image fails its framing, each with
// ErrCheckpoint; a different version byte is ErrCheckpointVersion.
func TestRestoreRejectsCorruptSections(t *testing.T) {
	good, err := os.ReadFile(goldenCheckpointFile)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 1
	cases := map[string]struct {
		img  []byte
		want error
	}{
		"flipped bit":      {flipped, ErrCheckpoint},
		"cut short":        {good[:len(good)-1], ErrCheckpoint},
		"trailing byte":    {append(bytes.Clone(good), 0), ErrCheckpoint},
		"magic prefix":     {good[:3], ErrCheckpoint},
		"empty":            {nil, ErrCheckpoint},
		"version 4":        {append(append([]byte(checkpointMagic), 4), good[len(checkpointMagic)+1:]...), ErrCheckpointVersion},
		"not a checkpoint": {[]byte("junk"), ErrCheckpointVersion},
	}
	for name, c := range cases {
		if _, err := Restore(goldenConfig(), goldenQueries(), bytes.NewReader(c.img)); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", name, err, c.want)
		}
	}
}

// resealSections recomputes every section's CRC in a copy of data, as far
// as the frames parse, so that a mutated payload reaches its decoder
// instead of failing the CRC.
func resealSections(data []byte) []byte {
	data = bytes.Clone(data)
	for at := len(checkpointMagic) + 1; at+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[at:]))
		if n > len(data)-at-8 {
			break
		}
		binary.LittleEndian.PutUint32(data[at+4+n:], crc32.Checksum(data[at+4:at+4+n], castagnoli))
		at += 8 + n
	}
	return data
}

// FuzzRestore mutates checkpoints of the golden configuration and re-seals
// their section CRCs, so the mutations reach the section decoders. Every
// input must either fail with a typed error or restore an engine whose
// checkpoint is exactly the input: Restore accepts only what Checkpoint
// writes.
func FuzzRestore(f *testing.F) {
	golden, err := os.ReadFile(goldenCheckpointFile)
	if err != nil {
		f.Fatal(err)
	}
	fresh, err := NewMulti(goldenConfig(), goldenQueries())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(buf.Bytes())
	f.Add([]byte(checkpointMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = resealSections(data)
		e, err := Restore(goldenConfig(), goldenQueries(), bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCheckpoint) && !errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("untyped restore error: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := e.Checkpoint(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("restored engine checkpoints differently:\n in  %x\n out %x", data, out.Bytes())
		}
	})
}

// TestReportSectionCoversEveryField sets every exported BatchReport field
// to a distinct non-zero value and round-trips the report through the
// report section's codec, so a field added later without codec support
// fails here instead of vanishing from checkpoints.
func TestReportSectionCoversEveryField(t *testing.T) {
	var rep BatchReport
	next := 1
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if !v.Type().Field(i).IsExported() {
					t.Fatalf("%s.%s is unexported: the report codec cannot carry it", v.Type(), v.Type().Field(i).Name)
				}
				fill(v.Field(i))
			}
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(next))
		case reflect.Float64:
			v.SetFloat(float64(next) + 0.25)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Slice:
			s := reflect.MakeSlice(v.Type(), 2, 2)
			fill(s.Index(0))
			fill(s.Index(1))
			v.Set(s)
		default:
			t.Fatalf("a %v field: teach this test and the report codec about it", v.Type())
		}
		next++
	}
	fill(reflect.ValueOf(&rep).Elem())
	r := codec.NewReader(appendReport(nil, &rep), ErrCheckpoint)
	got := decodeReport(r)
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("report section round trip:\n got  %+v\n want %+v", got, rep)
	}
}
