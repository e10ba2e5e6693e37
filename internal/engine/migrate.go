package engine

import (
	"errors"
	"fmt"

	"prompt/internal/migrate"
)

// SlotMigrator is implemented by data-plane executors (the cluster
// coordinator) that can replicate a slot's state image to the handoff
// recipient. Replication is best-effort: the driver has already applied
// the image locally, so a failed send degrades redundancy, never answers.
type SlotMigrator interface {
	MigrateSlot(slot, epoch, from, to int, image []byte, digest uint64) error
}

// Rescaler is implemented by executors whose active executor set can grow
// or shrink at a batch boundary (the cluster coordinator's shard links).
type Rescaler interface {
	Rescale(n int) error
}

// Rescale requests a change of the owner count to n, applied at the next
// batch boundary (the commit stage): the affected virtual slots' window
// state and intern slots migrate between owners there, bit-identically.
// The first call enables ownership tracking; until then the engine
// behaves as a single static owner and no migration machinery runs.
func (e *Engine) Rescale(n int) error {
	if n < 1 {
		return fmt.Errorf("engine: owner count must be positive, got %d", n)
	}
	e.pendingOwners = n
	return nil
}

// Owners reports the current owner count (0 = ownership tracking is off:
// no Rescale has ever been requested).
func (e *Engine) Owners() int { return e.owners }

// Migrations reports how many slot handoffs have been applied over the
// engine's lifetime.
func (e *Engine) Migrations() int { return e.migrations }

// applyRescale commits a pending owner-count change at a batch boundary.
// It runs at the very end of the commit stage — after the BatchReport is
// assembled — so migration can never perturb a report. Each moving slot is
// handed off on its own (handOff), so the work is proportional to the state
// that moves; a slot that fails to land is put back and the rescale stops
// there with every window intact.
func (e *Engine) applyRescale(epoch int) error {
	target := e.pendingOwners
	if target == 0 {
		return nil
	}
	e.pendingOwners = 0
	from := e.owners
	if from == 0 {
		from = 1 // tracking was off: the whole key space had one owner
	}
	for _, h := range migrate.Plan(from, target) {
		if err := e.handOff(h, epoch); err != nil {
			return fmt.Errorf("engine: batch %d: %w", epoch, err)
		}
		e.migrations++
	}
	e.owners = target
	if rs, ok := e.exec.(Rescaler); ok {
		if err := rs.Rescale(target); err != nil {
			return fmt.Errorf("engine: batch %d: rescaling executor: %w", epoch, err)
		}
	}
	return nil
}

// handOff moves one slot between owners: detach it from the windows, pack
// and encode its image, land the encoding (landImage), and best-effort
// replicate it to the recipient shard when the executor supports it.
func (e *Engine) handOff(h migrate.Handoff, epoch int) error {
	img := migrate.Extract(h.Slot, epoch, h.From, h.To, e.aggs, e.dict)
	enc := img.Encode()
	if err := e.landImage(img, enc); err != nil {
		return err
	}
	if sm, ok := e.exec.(SlotMigrator); ok {
		// Best-effort: the state is already safe on the driver, so a
		// dead or unreachable recipient only skips the replica.
		_ = sm.MigrateSlot(h.Slot, epoch, h.From, h.To, enc, migrate.Digest(enc))
	}
	return nil
}

// landImage decodes an in-flight slot image and applies it — the round
// trip through the migrate codec runs even in-process, so the
// serialization path always has teeth. The hand-off is all-or-nothing: if
// the encoding is rejected, the extracted original is attached back, so
// the slot's state is never dropped.
func (e *Engine) landImage(extracted *migrate.Image, enc []byte) error {
	dec, err := migrate.Decode(enc)
	if err == nil {
		err = migrate.Apply(dec, e.aggs, e.dict)
	}
	if err == nil {
		return nil
	}
	err = fmt.Errorf("slot %d image rejected in flight: %w", extracted.Slot, err)
	if back := migrate.Apply(extracted, e.aggs, e.dict); back != nil {
		return errors.Join(err, fmt.Errorf("reattaching the slot failed too: %w", back))
	}
	return err
}
