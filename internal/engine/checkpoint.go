package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"prompt/internal/approx"
	"prompt/internal/backpressure"
	"prompt/internal/codec"
	"prompt/internal/intern"
	"prompt/internal/migrate"
	"prompt/internal/tuple"
	"prompt/internal/window"
)

// A checkpoint is checkpointMagic, the version byte, and then one frame per
// entry of sections, in that order:
//
//	[u32 payload length][payload][u32 CRC-32C of the payload]
//
// all little-endian. Each payload is written with internal/codec and
// decodes on its own. Version 3 is this layout; versions up to 2 were gob
// streams (version 2 carried the windows as slot images, the unversioned
// layout before it as per-batch maps), which this engine does not read.
const (
	checkpointMagic   = "PROMPTCK"
	checkpointVersion = 3
)

var (
	// ErrCheckpointVersion reports a checkpoint written in a layout this
	// engine does not read, such as the gob streams of versions up to 2.
	// Restoring such an image fails instead of resuming with the sections
	// it could not interpret left empty.
	ErrCheckpointVersion = errors.New("engine: unsupported checkpoint version")
	// ErrCheckpoint reports a checkpoint Restore cannot resume from: a
	// truncated or corrupt image (a section failing its CRC, a field out
	// of range, a part in any form but the one Checkpoint writes) or one
	// that disagrees with the caller's configuration and queries.
	ErrCheckpoint = errors.New("engine: malformed checkpoint")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sections is the checkpoint layout. Every Restore failure past the header
// wraps ErrCheckpoint and names the section. The dictionary has no decode
// step here: Restore reads it first, because the engine is built around it.
var sections = [...]struct {
	name   string
	append func(*Engine, []byte) []byte
	decode func(*Engine, *codec.Reader)
}{
	{"scalars", (*Engine).appendScalars, (*Engine).decodeScalars},
	{"dictionary", (*Engine).appendDict, nil},
	{"last results", (*Engine).appendLastResults, (*Engine).decodeLastResults},
	{"windows", (*Engine).appendWindows, (*Engine).decodeWindows},
	{"reorderer", (*Engine).appendReorderer, (*Engine).decodeReorderer},
	{"throttle", (*Engine).appendThrottle, (*Engine).decodeThrottle},
	{"estimators", (*Engine).appendEstimators, (*Engine).decodeEstimators},
	{"reports", (*Engine).appendReports, (*Engine).decodeReports},
}

const dictSection = 1

// Checkpoint serializes the engine's driver state — batch position,
// pipeline occupancy, per-query last results, window contents, attached
// reorder buffer and throttle, approximate summaries, and the bounded
// report tail (Reports), so the image's size follows the state, not the
// run length — so a restarted process can resume exactly where this one
// stopped. It must be called between batches (the paper's state isolation
// point: all per-batch structures are empty at the heartbeat). Equal
// states write equal bytes.
func (e *Engine) Checkpoint(w io.Writer) error {
	// Consecutive images are close in size; an eighth of headroom absorbs
	// the variation without regrowing (and copying) the whole image.
	b := append(make([]byte, 0, e.checkpointSize+e.checkpointSize/8), checkpointMagic...)
	b = append(b, checkpointVersion)
	for _, s := range sections {
		at := len(b)
		b = s.append(e, append(b, 0, 0, 0, 0))
		n := len(b) - at - 4
		if uint64(n) > math.MaxUint32 {
			return fmt.Errorf("engine: checkpoint %s section is %d bytes, beyond its 32-bit frame", s.name, n)
		}
		binary.LittleEndian.PutUint32(b[at:], uint32(n))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[at+4:], castagnoli))
	}
	e.checkpointSize = len(b)
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("engine: writing checkpoint: %w", err)
	}
	return nil
}

// Restore rebuilds an engine from a checkpoint. cfg and queries must match
// the checkpointed engine's configuration — the query functions are
// reattached from the caller since code cannot be serialized. Determinism
// of the query functions is what makes the resumed computation identical.
// Restore accepts only what Checkpoint writes, so the restored engine
// checkpoints to the bytes it was restored from.
func Restore(cfg Config, queries []Query, r io.Reader) (*Engine, error) {
	// Read the image in one allocation when r knows its length; growing
	// into it from empty copies it several times over.
	var in bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		in.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := in.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("engine: reading checkpoint: %w", err)
	}
	payloads, err := splitSections(in.Bytes())
	if err != nil {
		return nil, err
	}
	dict, err := decodeDict(payloads[dictSection])
	if err != nil {
		return nil, err
	}
	e, err := newMulti(cfg, queries, dict)
	if err != nil {
		return nil, err
	}
	for i, s := range sections {
		if s.decode == nil {
			continue
		}
		rd := codec.NewReader(payloads[i], ErrCheckpoint)
		s.decode(e, rd)
		if err := rd.End(); err != nil {
			return nil, fmt.Errorf("engine: checkpoint %s section: %w", s.name, err)
		}
	}
	// The estimate feedback is derivable from the reports, so the image
	// carries no extra fields for it.
	e.resetEstimates()
	return e, nil
}

// splitSections checks the header and every section's frame and CRC, and
// returns the payloads in layout order.
func splitSections(data []byte) ([][]byte, error) {
	head := len(checkpointMagic) + 1
	switch {
	case len(data) < head && strings.HasPrefix(checkpointMagic, string(data)):
		return nil, fmt.Errorf("%w: %d-byte image", ErrCheckpoint, len(data))
	case len(data) < head || string(data[:head-1]) != checkpointMagic:
		return nil, fmt.Errorf("%w: no version-%d header (earlier layouts were gob streams)",
			ErrCheckpointVersion, checkpointVersion)
	case data[head-1] != checkpointVersion:
		return nil, fmt.Errorf("%w: image is version %d, this engine reads version %d",
			ErrCheckpointVersion, data[head-1], checkpointVersion)
	}
	rest := data[head:]
	payloads := make([][]byte, len(sections))
	for i, s := range sections {
		if len(rest) < 8 || uint64(binary.LittleEndian.Uint32(rest))+8 > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: %s section truncated", ErrCheckpoint, s.name)
		}
		n := 4 + int(binary.LittleEndian.Uint32(rest))
		if crc32.Checksum(rest[4:n], castagnoli) != binary.LittleEndian.Uint32(rest[n:]) {
			return nil, fmt.Errorf("%w: %s section fails its CRC", ErrCheckpoint, s.name)
		}
		payloads[i], rest = rest[4:n], rest[n+4:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last section", ErrCheckpoint, len(rest))
	}
	return payloads, nil
}

// scalars lists the engine's scalar state in section order.
func (e *Engine) scalars() ([2]*tuple.Time, [7]*int) {
	return [...]*tuple.Time{&e.now, &e.procFree},
		[...]*int{&e.batchIdx, &e.taskSeq, &e.coresLost, &e.pendingDrops, &e.owners, &e.pendingOwners, &e.migrations}
}

// appendScalars writes the query count, then the scalars.
func (e *Engine) appendScalars(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(len(e.queries)))
	times, ints := e.scalars()
	for _, t := range times {
		b = codec.AppendVarint(b, int64(*t))
	}
	for _, v := range ints {
		b = codec.AppendVarint(b, int64(*v))
	}
	return b
}

func (e *Engine) decodeScalars(r *codec.Reader) {
	if n := r.Uint(); n != len(e.queries) {
		r.Failf("checkpoint has %d queries, caller supplied %d", n, len(e.queries))
		return
	}
	times, ints := e.scalars()
	for _, t := range times {
		*t = tuple.Time(r.Varint())
	}
	for _, v := range ints {
		*v = r.Int()
	}
}

// appendDict writes the key dictionary in ID order, so a restored engine
// resolves every already-issued key ID exactly as the checkpointed one did.
func (e *Engine) appendDict(b []byte) []byte {
	keys := e.dict.Strings()
	b = codec.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = codec.AppendString(b, k)
	}
	return b
}

func decodeDict(payload []byte) (*intern.Dict, error) {
	r := codec.NewReader(payload, ErrCheckpoint)
	keys := make([]string, r.Count(1))
	// The keys are cut from one copy of the section rather than copied out
	// one by one; the dictionary keeps every one of them anyway.
	table := string(payload)
	for i := range keys {
		n := r.Count(1)
		keys[i] = table[r.Offset() : r.Offset()+n]
		r.Raw(n)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("engine: checkpoint dictionary section: %w", err)
	}
	dict, err := intern.FromSnapshot(keys)
	if err != nil {
		return nil, fmt.Errorf("%w: dictionary section: %w", ErrCheckpoint, err)
	}
	return dict, nil
}

// appendLastResults writes each query's last result (or its absence) as a
// key column in ascending order and the matching value column.
func (e *Engine) appendLastResults(b []byte) []byte {
	strs := e.dict.Strings()
	var order intern.Sorter
	b = codec.AppendUvarint(b, uint64(len(e.lastResults)))
	for _, last := range e.lastResults {
		b = codec.AppendBool(b, last != nil)
		order.Items = order.Items[:0]
		if last != nil {
			for j, id := range last.IDs {
				order.Items = append(order.Items, intern.Item{Prefix: intern.KeyPrefix(strs[id]), Idx: int32(j)})
			}
		}
		sorted := order.Sort(func(j int32) string { return strs[last.IDs[j]] })
		b = codec.AppendUvarint(b, uint64(len(sorted)))
		for _, it := range sorted {
			b = codec.AppendString(b, strs[last.IDs[it.Idx]])
		}
		for _, it := range sorted {
			b = codec.AppendFloat(b, last.Vals[it.Idx])
		}
	}
	return b
}

func (e *Engine) decodeLastResults(r *codec.Reader) {
	if n := r.Count(2); n != len(e.lastResults) {
		r.Failf("%d last results for %d queries", n, len(e.lastResults))
		return
	}
	for i := range e.lastResults {
		present := r.Bool()
		keys := make([]string, r.Count(9)) // key(1+) + value(8)
		for j := range keys {
			if keys[j] = r.Str(); j > 0 && keys[j] <= keys[j-1] {
				r.Failf("query %d: result key %q repeated or out of order", i, keys[j])
				return
			}
		}
		if !present {
			if len(keys) > 0 {
				r.Failf("query %d: an absent result with %d keys", i, len(keys))
			}
			continue
		}
		res := &Result{IDs: make([]uint32, len(keys)), Vals: make([]float64, len(keys))}
		for j, k := range keys {
			id, ok := e.dict.Lookup(k)
			if !ok {
				r.Failf("query %d: result key %q is not in the dictionary", i, k)
				return
			}
			res.IDs[j] = id
			res.Vals[j] = r.Float()
		}
		e.lastResults[i] = res
	}
}

// appendWindows writes the windows as one migrate image per virtual slot:
// the very images a rescale hands off, in their own versioned codec.
func (e *Engine) appendWindows(b []byte) []byte {
	images := exportWindows(e.aggs, e.dict)
	b = codec.AppendUvarint(b, uint64(len(images)))
	for _, img := range images {
		b = codec.AppendBytes(b, img)
	}
	return b
}

func (e *Engine) decodeWindows(r *codec.Reader) {
	images := make([][]byte, r.Count(1))
	for i := range images {
		images[i] = r.Bytes()
	}
	if r.Err() != nil {
		return
	}
	if err := restoreWindows(images, e.aggs, e.dict); err != nil {
		r.Failf("%w", err)
	}
}

// exportWindows serializes the windows as one migrate image per virtual
// slot, exported without disturbing them. The images' hand-off fields
// (epoch, from, to) stay zero: a checkpoint moves nothing, and the engine's
// position and owner count are scalars of their own.
func exportWindows(aggs []*window.Aggregator, dict *intern.Dict) [][]byte {
	images := make([][]byte, migrate.NumSlots)
	for slot := range images {
		images[slot] = migrate.Export(slot, 0, 0, 0, aggs, dict).Encode()
	}
	return images
}

// restoreWindows rebuilds freshly built (empty) aggregators over the
// restored dictionary from a checkpoint's slot images.
func restoreWindows(images [][]byte, aggs []*window.Aggregator, dict *intern.Dict) error {
	if len(images) != migrate.NumSlots {
		return fmt.Errorf("checkpoint carries %d slot images, want %d", len(images), migrate.NumSlots)
	}
	var windowed []int
	for q, ag := range aggs {
		if ag != nil {
			windowed = append(windowed, q)
		}
	}
	for slot, enc := range images {
		img, err := migrate.Decode(enc)
		if err == nil {
			err = exportForm(img, slot, windowed, dict)
		}
		if err != nil {
			return fmt.Errorf("slot %d: %w", slot, err)
		}
		if slot == 0 {
			// Every image lists every retained batch end of every windowed
			// query, keys or no keys; the first one lays the batch lists
			// out, and every image — itself included — must then align
			// with them.
			for _, q := range img.Queries {
				for _, b := range q.Batches {
					if err := aggs[q.Query].AddBatch(b.End, nil); err != nil {
						return fmt.Errorf("query %d: %w", q.Query, err)
					}
				}
			}
		}
		if err := migrate.Apply(img, aggs, dict); err != nil {
			return err
		}
	}
	return nil
}

// exportForm checks that a slot image is exactly what exportWindows writes
// for that slot, which is what makes a restored engine's checkpoint equal
// the one it came from: no hand-off fields, every windowed query in order,
// a key table of keys the dictionary section holds under the same IDs, in
// ascending ID order and each referenced, and every batch's references
// ascending. Apply checks the rest (slot membership, batch alignment).
func exportForm(img *migrate.Image, slot int, windowed []int, dict *intern.Dict) error {
	if img.Slot != slot || img.Epoch != 0 || img.From != 0 || img.To != 0 {
		return fmt.Errorf("image header (slot %d, epoch %d, %d→%d) is not a checkpoint's",
			img.Slot, img.Epoch, img.From, img.To)
	}
	if len(img.Queries) != len(windowed) {
		return fmt.Errorf("image carries %d queries, engine has %d windowed", len(img.Queries), len(windowed))
	}
	used := make([]bool, len(img.Dict))
	for i, q := range img.Queries {
		if q.Query != windowed[i] {
			return fmt.Errorf("image query %d is %d, want windowed query %d", i, q.Query, windowed[i])
		}
		for _, b := range q.Batches {
			for j, ref := range b.Refs {
				if j > 0 && ref <= b.Refs[j-1] {
					return fmt.Errorf("query %d batch ending %v: references out of key order", q.Query, b.End)
				}
				used[ref] = true
			}
		}
	}
	keys := dict.Strings()
	for i, d := range img.Dict {
		if int(d.ID) >= len(keys) || keys[d.ID] != d.Key || !used[i] || i > 0 && d.ID <= img.Dict[i-1].ID {
			return fmt.Errorf("key table entry %d (%q as %d) is not in export form", i, d.Key, d.ID)
		}
	}
	return nil
}

// appendReorderer writes the attached reorder buffer, or its absence: the
// delay bound, both horizons, the drop count, how much of the buffer is
// already sorted, and the buffered tuples as columns. Weights go in at
// full width: a pending weight too wide for the engine's int32 weight
// column must fail its batch after a restore exactly as it would have
// without one.
func (e *Engine) appendReorderer(b []byte) []byte {
	r := e.reorder
	b = codec.AppendBool(b, r != nil)
	if r == nil {
		return b
	}
	for _, v := range [...]int64{int64(r.MaxDelay), int64(r.sealed), int64(r.ingested), int64(r.dropped), int64(r.sorted)} {
		b = codec.AppendVarint(b, v)
	}
	b = codec.AppendUvarint(b, uint64(len(r.pending)))
	for i := range r.pending {
		b = codec.AppendVarint(b, int64(r.pending[i].TS))
	}
	for i := range r.pending {
		b = codec.AppendString(b, r.pending[i].Key)
	}
	for i := range r.pending {
		b = codec.AppendFloat(b, r.pending[i].Val)
	}
	for i := range r.pending {
		b = codec.AppendVarint(b, int64(r.pending[i].Weight))
	}
	return b
}

func (e *Engine) decodeReorderer(rd *codec.Reader) {
	if !rd.Bool() {
		return
	}
	r := &Reorderer{MaxDelay: tuple.Time(rd.Varint()), sealed: tuple.Time(rd.Varint()),
		ingested: tuple.Time(rd.Varint()), dropped: rd.Int(), sorted: rd.Int()}
	r.pending = make([]tuple.Tuple, rd.Count(11)) // TS(1+) + key(1+) + Val(8) + Weight(1+)
	for i := range r.pending {
		r.pending[i].TS = tuple.Time(rd.Varint())
	}
	for i := range r.pending {
		r.pending[i].Key = rd.Str()
	}
	for i := range r.pending {
		r.pending[i].Val = rd.Float()
	}
	for i := range r.pending {
		r.pending[i].Weight = rd.Int()
	}
	switch {
	case r.MaxDelay < 0:
		rd.Failf("negative max delay %v", r.MaxDelay)
	case r.sorted < 0 || r.sorted > len(r.pending):
		rd.Failf("sorted prefix %d outside buffer of %d", r.sorted, len(r.pending))
	}
	e.reorder = r
}

// throttleFields lists the AIMD controller's state in section order.
func throttleFields(a *backpressure.AIMD) [6]*float64 {
	return [...]*float64{&a.Factor, &a.Min, &a.Max, &a.Increase, &a.Decrease, &a.RecoveryCut}
}

// appendThrottle writes the attached AIMD controller, or its absence;
// without it a restored engine sprang back to full rate mid-backoff.
func (e *Engine) appendThrottle(b []byte) []byte {
	b = codec.AppendBool(b, e.throttle != nil)
	if e.throttle != nil {
		for _, f := range throttleFields(e.throttle) {
			b = codec.AppendFloat(b, *f)
		}
	}
	return b
}

func (e *Engine) decodeThrottle(r *codec.Reader) {
	if !r.Bool() {
		return
	}
	e.throttle = &backpressure.AIMD{}
	for _, f := range throttleFields(e.throttle) {
		*f = r.Float()
	}
}

// appendEstimators writes the approximate tier, one approx codec image per
// query, or its absence.
func (e *Engine) appendEstimators(b []byte) []byte {
	b = codec.AppendBool(b, e.approxes != nil)
	if e.approxes == nil {
		return b
	}
	b = codec.AppendUvarint(b, uint64(len(e.approxes)))
	for _, est := range e.approxes {
		// In place: an estimator image is megabytes, and encoding it into
		// a buffer of its own grew that buffer from empty.
		b = codec.AppendFramed(b, est.Append)
	}
	return b
}

func (e *Engine) decodeEstimators(r *codec.Reader) {
	if present := r.Bool(); present != (e.approxes != nil) {
		r.Failf("approximate state present %v, config enables the tier %v", present, e.approxes != nil)
		return
	}
	if e.approxes == nil {
		return
	}
	if n := r.Count(1); n != len(e.approxes) {
		r.Failf("%d approximate summaries, engine has %d queries", n, len(e.approxes))
		return
	}
	for i := range e.approxes {
		est, err := approx.Decode(r.Bytes())
		switch {
		case r.Err() != nil:
			return
		case err != nil:
			r.Failf("summary %d: %w", i, err)
			return
		case est.Kind() != e.approxes[i].Kind():
			r.Failf("summary %d is %q, config asks for %q", i, est.Kind(), e.approxes[i].Kind())
			return
		}
		e.approxes[i] = est
	}
}

// appendReports writes the bounded report tail (see Engine.Reports).
func (e *Engine) appendReports(b []byte) []byte {
	reports := e.Reports()
	b = codec.AppendUvarint(b, uint64(len(reports)))
	for i := range reports {
		b = appendReport(b, &reports[i])
	}
	return b
}

func (e *Engine) decodeReports(r *codec.Reader) {
	n := r.Count(80) // 21 varints, 7 floats, 2 counts and a bool at least
	if n > reportTail {
		r.Failf("%d reports, the tail holds %d", n, reportTail)
		return
	}
	e.reports = make([]BatchReport, n)
	for i := range e.reports {
		e.reports[i] = decodeReport(r)
	}
}

// fields lists a report's scalar fields in section order, so the report
// writer and reader walk one list.
func (rep *BatchReport) fields() ([11]*int, [10]*tuple.Time, [7]*float64) {
	return [...]*int{&rep.Index, &rep.Tuples, &rep.Keys, &rep.MapTasks, &rep.ReduceTasks, &rep.Cores,
			&rep.CoresLost, &rep.TaskRetries, &rep.RecoveryAttempts, &rep.TuplesDropped, &rep.ApproxBytes},
		[...]*tuple.Time{&rep.Start, &rep.End, &rep.RecoveryTime, &rep.PartitionTime, &rep.PartitionOverflow,
			&rep.MapStageTime, &rep.ReduceStageTime, &rep.ProcessingTime, &rep.QueueWait, &rep.Latency},
		[...]*float64{&rep.Quality.BSI, &rep.Quality.BCI, &rep.Quality.KSR, &rep.Quality.MPI,
			&rep.BucketBSI, &rep.W, &rep.ApproxErrorBound}
}

// appendReport writes every BatchReport field bit for bit: integers and
// times as varints, floats as IEEE bits.
func appendReport(b []byte, rep *BatchReport) []byte {
	ints, times, floats := rep.fields()
	for _, v := range ints {
		b = codec.AppendVarint(b, int64(*v))
	}
	for _, t := range times {
		b = codec.AppendVarint(b, int64(*t))
	}
	for _, f := range floats {
		b = codec.AppendFloat(b, *f)
	}
	b = codec.AppendUvarint(b, uint64(len(rep.BucketSizes)))
	for _, s := range rep.BucketSizes {
		b = codec.AppendVarint(b, int64(s))
	}
	b = codec.AppendUvarint(b, uint64(len(rep.ReduceTaskTimes)))
	for _, t := range rep.ReduceTaskTimes {
		b = codec.AppendVarint(b, int64(t))
	}
	return codec.AppendBool(b, rep.Stable)
}

// decodeReport reads one report; an empty slice field reads as nil.
func decodeReport(r *codec.Reader) (rep BatchReport) {
	ints, times, floats := rep.fields()
	for _, v := range ints {
		*v = r.Int()
	}
	for _, t := range times {
		*t = tuple.Time(r.Varint())
	}
	for _, f := range floats {
		*f = r.Float()
	}
	if n := r.Count(1); n > 0 {
		rep.BucketSizes = make([]int, n)
		for i := range rep.BucketSizes {
			rep.BucketSizes[i] = r.Int()
		}
	}
	if n := r.Count(1); n > 0 {
		rep.ReduceTaskTimes = make([]tuple.Time, n)
		for i := range rep.ReduceTaskTimes {
			rep.ReduceTaskTimes[i] = tuple.Time(r.Varint())
		}
	}
	rep.Stable = r.Bool()
	return rep
}
