package engine

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"prompt/internal/approx"
	"prompt/internal/backpressure"
	"prompt/internal/intern"
	"prompt/internal/migrate"
	"prompt/internal/tuple"
	"prompt/internal/window"
)

// checkpointVersion tags the checkpoint layout. Version 2 carries the
// windows as per-slot migrate images (Slots); the layout before it had no
// version field and carried them as gob-encoded per-batch maps, which this
// engine no longer reads.
const checkpointVersion = 2

// ErrCheckpointVersion reports a checkpoint written in a layout this
// engine does not read. Restoring such an image fails instead of resuming
// with the sections it could not interpret left empty.
var ErrCheckpointVersion = errors.New("engine: unsupported checkpoint version")

// checkpointImage is the serialized driver state. Query functions cannot
// be serialized; Restore receives the same queries from the caller and
// reattaches them, which is safe because query identity (not closure
// state) determines the computation.
type checkpointImage struct {
	// Version is checkpointVersion. gob leaves a field the stream lacks at
	// zero, so an image from before the field existed reads as version 0.
	Version     int
	BatchIdx    int
	Now         tuple.Time
	ProcFree    tuple.Time
	TaskSeq     int
	CoresLost   int
	QueryCount  int
	LastResults []map[string]float64
	// Slots is the window section: one encoded migrate image per virtual
	// slot, in slot order, each carrying every windowed query's retained
	// batches for that slot's keys — the very images a rescale hands off,
	// in their own versioned codec rather than raw gob.
	Slots [][]byte
	// Reports is the bounded report tail (see Engine.Reports).
	Reports []BatchReport
	// Interned is the key dictionary in ID order (intern.Dict.Snapshot),
	// so a restored engine resolves every already-issued key ID exactly
	// as the checkpointed one did.
	Interned []string
	// HasReorder/Reorder carry the attached reorder buffer: its pending
	// tuples, sealing horizons, and drop count. Omitting them (the
	// original checkpoint amnesia) silently lost every buffered tuple on
	// restore. Value-plus-flag rather than a pointer keeps the gob stream
	// unambiguous and old checkpoints decodable (absent fields stay
	// zero, so HasReorder is false).
	HasReorder bool
	Reorder    ReordererImage
	// HasThrottle/Throttle carry the attached AIMD controller; without
	// them a restored engine sprang back to full rate mid-backoff.
	HasThrottle bool
	Throttle    backpressure.AIMD
	// DropsPending is the engine's not-yet-reported drop count, charged
	// to the first batch committed after restore.
	DropsPending int
	// Owners/PendingOwners/Migrations carry the elastic runtime's
	// ownership state. A checkpoint taken mid-migration (Rescale
	// requested, commit not yet reached) restores with PendingOwners
	// set, so the restored engine completes the handoff at its next
	// batch boundary — never half-applied. Absent fields in old
	// checkpoints decode to zero: tracking off, exactly as before.
	Owners        int
	PendingOwners int
	Migrations    int
	// HasApprox/Approx carry the approximate tier: one approx codec image
	// per query (the versioned binary format of internal/approx, not raw
	// gob), so the sketches survive restarts with byte-exact state. Old
	// checkpoints decode with HasApprox false; restoring one into a
	// config that enables the tier starts the estimators empty.
	HasApprox bool
	Approx    [][]byte
}

// Checkpoint serializes the engine's driver state — batch position,
// pipeline occupancy, per-query last results, window contents, and the
// bounded report tail (Reports), so the image's size follows the state,
// not the run length — so a restarted process can resume exactly where
// this one stopped. It must be called between batches (the paper's state
// isolation point: all per-batch structures are empty at the heartbeat).
func (e *Engine) Checkpoint(w io.Writer) error {
	img := checkpointImage{
		Version:     checkpointVersion,
		BatchIdx:    e.batchIdx,
		Now:         e.now,
		ProcFree:    e.procFree,
		TaskSeq:     e.taskSeq,
		CoresLost:   e.coresLost,
		QueryCount:  len(e.queries),
		LastResults: e.lastResults,
		Slots:       exportWindows(e.aggs, e.dict),
		Reports:     e.Reports(),
		Interned:    e.dict.Snapshot(),
	}
	if e.reorder != nil {
		img.HasReorder = true
		img.Reorder = e.reorder.Image()
	}
	if e.throttle != nil {
		img.HasThrottle = true
		img.Throttle = *e.throttle
	}
	img.DropsPending = e.pendingDrops
	img.Owners = e.owners
	img.PendingOwners = e.pendingOwners
	img.Migrations = e.migrations
	if e.approxes != nil {
		img.HasApprox = true
		img.Approx = make([][]byte, len(e.approxes))
		for i, est := range e.approxes {
			img.Approx[i] = est.Encode()
		}
	}
	if err := gob.NewEncoder(w).Encode(&img); err != nil {
		return fmt.Errorf("engine: writing checkpoint: %w", err)
	}
	return nil
}

// Restore rebuilds an engine from a checkpoint. cfg and queries must match
// the checkpointed engine's configuration — the query functions are
// reattached from the caller since code cannot be serialized. Determinism
// of the query functions is what makes the resumed computation identical.
func Restore(cfg Config, queries []Query, r io.Reader) (*Engine, error) {
	var img checkpointImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("engine: reading checkpoint: %w", err)
	}
	if img.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: image is version %d, this engine reads version %d",
			ErrCheckpointVersion, img.Version, checkpointVersion)
	}
	if len(queries) != img.QueryCount {
		return nil, fmt.Errorf("engine: checkpoint has %d queries, caller supplied %d",
			img.QueryCount, len(queries))
	}
	dict, err := intern.FromSnapshot(img.Interned)
	if err != nil {
		return nil, fmt.Errorf("engine: restoring key dictionary: %w", err)
	}
	e, err := newMulti(cfg, queries, dict)
	if err != nil {
		return nil, err
	}
	if err := restoreWindows(img.Slots, e.aggs, e.dict); err != nil {
		return nil, fmt.Errorf("engine: restoring windows: %w", err)
	}
	e.batchIdx = img.BatchIdx
	e.now = img.Now
	e.procFree = img.ProcFree
	e.taskSeq = img.TaskSeq
	e.coresLost = img.CoresLost
	e.lastResults = img.LastResults
	e.reports = img.Reports
	// The estimate feedback is derivable from the reports, so the image
	// carries no extra fields for it.
	e.resetEstimates()
	if img.HasReorder {
		reord, err := RestoreReorderer(img.Reorder)
		if err != nil {
			return nil, err
		}
		e.reorder = reord
	}
	if img.HasThrottle {
		throttle := img.Throttle
		e.throttle = &throttle
	}
	e.pendingDrops = img.DropsPending
	e.owners = img.Owners
	e.pendingOwners = img.PendingOwners
	e.migrations = img.Migrations
	if img.HasApprox {
		if e.approxes == nil {
			return nil, fmt.Errorf("engine: checkpoint carries approximate state, config disables the tier")
		}
		if len(img.Approx) != len(e.approxes) {
			return nil, fmt.Errorf("engine: checkpoint has %d approximate summaries, engine has %d queries",
				len(img.Approx), len(e.approxes))
		}
		for i, state := range img.Approx {
			est, err := approx.Decode(state)
			if err != nil {
				return nil, fmt.Errorf("engine: restoring approximate summary %d: %w", i, err)
			}
			if est.Kind() != e.approxes[i].Kind() {
				return nil, fmt.Errorf("engine: checkpointed summary %d is %q, config asks for %q",
					i, est.Kind(), e.approxes[i].Kind())
			}
			e.approxes[i] = est
		}
	}
	return e, nil
}

// exportWindows serializes the windows as one migrate image per virtual
// slot, exported without disturbing them. The images' hand-off fields
// (epoch, from, to) stay zero: a checkpoint moves nothing, and the engine's
// position and owner count have their own fields in the envelope.
func exportWindows(aggs []*window.Aggregator, dict *intern.Dict) [][]byte {
	images := make([][]byte, migrate.NumSlots)
	for slot := range images {
		images[slot] = migrate.Export(slot, 0, 0, 0, aggs, dict).Encode()
	}
	return images
}

// restoreWindows rebuilds freshly built (empty) aggregators from a
// checkpoint's slot images.
func restoreWindows(images [][]byte, aggs []*window.Aggregator, dict *intern.Dict) error {
	if len(images) != migrate.NumSlots {
		return fmt.Errorf("checkpoint carries %d slot images, want %d", len(images), migrate.NumSlots)
	}
	for slot, enc := range images {
		img, err := migrate.Decode(enc)
		if err != nil {
			return fmt.Errorf("slot %d: %w", slot, err)
		}
		if img.Slot != slot {
			return fmt.Errorf("slot %d: image says it is slot %d", slot, img.Slot)
		}
		if slot == 0 {
			// Every image lists every retained batch end of every windowed
			// query, keys or no keys; the first one lays the batch lists
			// out, and every image — itself included — must then align
			// with them. A query index Apply would refuse is left to it.
			for _, q := range img.Queries {
				if q.Query < 0 || q.Query >= len(aggs) || aggs[q.Query] == nil {
					continue
				}
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
