package wire

import (
	"bytes"

	"prompt/internal/codec"
)

// Migrate ships one virtual slot's state image to its new owner during a
// rescale (the key-range handoff of the elasticity protocol). The image
// bytes are internal/migrate's own versioned image — opaque to this layer,
// which only frames, sizes, and digests them.
type Migrate struct {
	// Batch is the epoch (batch index) the handoff commits at; a
	// recipient replacing a stripe it already holds keeps the newest.
	Batch int
	// Slot, From, To identify the handoff within the rescale plan.
	Slot int
	From int
	To   int
	// Image is the migrate-codec state image for the slot.
	Image []byte
	// Digest is the FNV-1a fingerprint of Image; the recipient echoes it
	// in MigrateAck so the sender can verify the state arrived intact.
	Digest uint64
}

// WireType implements Msg.
func (*Migrate) WireType() Type { return TypeMigrate }

func (m *Migrate) append(b []byte) []byte {
	b = codec.AppendVarint(b, int64(m.Batch))
	b = codec.AppendVarint(b, int64(m.Slot))
	b = codec.AppendVarint(b, int64(m.From))
	b = codec.AppendVarint(b, int64(m.To))
	b = codec.AppendBytes(b, m.Image)
	b = codec.AppendUvarint(b, m.Digest)
	return b
}

func (m *Migrate) decode(r *codec.Reader) {
	m.Batch = r.Int()
	m.Slot = r.Int()
	m.From = r.Int()
	m.To = r.Int()
	m.Image = bytes.Clone(r.Bytes())
	m.Digest = r.Uvarint()
}

// MigrateAck acknowledges a Migrate frame: the recipient echoes the slot
// and its own digest of the received image, plus how many keys the image
// carried, so the sender detects corruption or misdelivery.
type MigrateAck struct {
	Slot   int
	Digest uint64
	Keys   int
}

// WireType implements Msg.
func (*MigrateAck) WireType() Type { return TypeMigrateAck }

func (m *MigrateAck) append(b []byte) []byte {
	b = codec.AppendVarint(b, int64(m.Slot))
	b = codec.AppendUvarint(b, m.Digest)
	b = codec.AppendVarint(b, int64(m.Keys))
	return b
}

func (m *MigrateAck) decode(r *codec.Reader) {
	m.Slot = r.Int()
	m.Digest = r.Uvarint()
	m.Keys = r.Int()
}
