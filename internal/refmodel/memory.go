package refmodel

import (
	"sort"

	"cherisim/internal/cap"
	"cherisim/internal/mem"
)

// Memory is the reference tagged memory: one map entry per written byte,
// one per set tag and one per resident page, with no radix table and no
// page memo. Writes populate every page they touch; reads and tag
// clears do not.
type Memory struct {
	bytes map[uint64]byte
	tags  map[uint64]bool // granule base -> tag set
	pages map[uint64]bool // resident page numbers
}

// NewMemory returns an empty reference memory.
func NewMemory() *Memory {
	return &Memory{
		bytes: make(map[uint64]byte),
		tags:  make(map[uint64]bool),
		pages: make(map[uint64]bool),
	}
}

// write stores b at addr and clears the tag of every granule it overlaps.
func (m *Memory) write(addr uint64, b []byte) {
	for i, v := range b {
		a := addr + uint64(i)
		m.bytes[a] = v
		m.pages[a/mem.PageSize] = true
		delete(m.tags, a/cap.TagGranule*cap.TagGranule)
	}
}

// WriteUint writes the low size bytes of val little-endian at addr.
func (m *Memory) WriteUint(addr, val, size uint64) {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(val >> (8 * i))
	}
	m.write(addr, b)
}

// ReadUint reads a little-endian integer of size bytes at addr.
func (m *Memory) ReadUint(addr, size uint64) uint64 {
	var v uint64
	for i := uint64(0); i < size; i++ {
		v |= uint64(m.bytes[addr+i]) << (8 * i)
	}
	return v
}

// WriteCap stores a capability image and sets or clears its granule's tag.
// addr must be 16-byte aligned.
func (m *Memory) WriteCap(addr uint64, e cap.Encoded, tag bool) {
	m.WriteUint(addr, e.Addr, 8)
	m.WriteUint(addr+8, e.Meta, 8)
	if tag {
		m.tags[addr] = true
	}
}

// ReadCap loads a capability image and its tag. addr must be 16-byte
// aligned.
func (m *Memory) ReadCap(addr uint64) (cap.Encoded, bool) {
	return cap.Encoded{Addr: m.ReadUint(addr, 8), Meta: m.ReadUint(addr+8, 8)}, m.tags[addr]
}

// ClearTag clears the tag of addr's granule and reports whether it was set.
func (m *Memory) ClearTag(addr uint64) bool {
	g := addr / cap.TagGranule * cap.TagGranule
	set := m.tags[g]
	delete(m.tags, g)
	return set
}

// TagAt reports the tag of addr's granule.
func (m *Memory) TagAt(addr uint64) bool { return m.tags[addr/cap.TagGranule*cap.TagGranule] }

// TaggedGranules returns the tagged granule addresses in ascending order.
func (m *Memory) TaggedGranules() []uint64 {
	out := make([]uint64, 0, len(m.tags))
	for g := range m.tags {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Populated returns the number of resident pages.
func (m *Memory) Populated() int { return len(m.pages) }
