// Package mem implements the simulated physical memory of the Morello
// platform: byte-addressable storage with the out-of-band capability tag
// bits that CHERI requires (one tag per 16-byte granule). Tag behaviour
// follows the architecture: capability stores set the granule's tag,
// any overlapping non-capability store clears it, and capability loads
// return the tag alongside the data.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"

	"cherisim/internal/cap"
)

// PageSize is the backing-store granularity. It matches the 4 KiB
// translation granule used by the TLB model.
const PageSize = 4096

const tagsPerPage = PageSize / cap.TagGranule

type page struct {
	data [PageSize]byte
	tags [tagsPerPage]bool
}

// The page table is a three-level radix over the 35-bit page numbers of
// the 47-bit simulated address space (every segment in core's layout sits
// below 2^47): an 11-bit root embedded in Memory, then 12-bit mid and leaf
// tables allocated on first touch. Page numbers at or above 2^35 live in
// a small overflow map.
const (
	pageNumBits = 35
	midBits     = 12
	leafBits    = 12
	rootBits    = pageNumBits - midBits - leafBits
)

type (
	leafTable [1 << leafBits]*page
	midTable  [1 << midBits]*leafTable
)

// Memory is a simulated physical memory whose pages are allocated on
// first write. The zero value is not usable; create one with New.
type Memory struct {
	root     [1 << rootBits]*midTable
	overflow map[uint64]*page // page numbers >= 2^pageNumBits
	npages   int

	// lastPN/lastPage memoise the most recently touched resident page.
	// Accesses overwhelmingly stay on one page across consecutive calls, and
	// the memo turns those lookups into one compare instead of a radix
	// walk. Pages are never removed, so the memo can only go stale by
	// pointing at a page that is still valid — it never fabricates
	// residency.
	lastPN   uint64
	lastPage *page

	// BytesRead and BytesWritten accumulate raw traffic for bandwidth
	// accounting by the DRAM model.
	BytesRead    uint64
	BytesWritten uint64
}

// New returns an empty memory.
func New() *Memory { return &Memory{} }

func (m *Memory) pageFor(addr uint64, create bool) *page {
	pn := addr / PageSize
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	p := m.lookup(pn, create)
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// lookup returns page pn, allocating it (and the tables on its path) when
// create is set; otherwise an absent page is nil.
func (m *Memory) lookup(pn uint64, create bool) *page {
	if pn >= 1<<pageNumBits {
		p := m.overflow[pn]
		if p == nil && create {
			if m.overflow == nil {
				m.overflow = make(map[uint64]*page)
			}
			p = new(page)
			m.overflow[pn] = p
			m.npages++
		}
		return p
	}
	mid := m.root[pn>>(midBits+leafBits)]
	if mid == nil {
		if !create {
			return nil
		}
		mid = new(midTable)
		m.root[pn>>(midBits+leafBits)] = mid
	}
	leaf := mid[pn>>leafBits&(1<<midBits-1)]
	if leaf == nil {
		if !create {
			return nil
		}
		leaf = new(leafTable)
		mid[pn>>leafBits&(1<<midBits-1)] = leaf
	}
	p := leaf[pn&(1<<leafBits-1)]
	if p == nil && create {
		p = new(page)
		leaf[pn&(1<<leafBits-1)] = p
		m.npages++
	}
	return p
}

// forEachPage invokes fn for every resident page in ascending page-number
// order.
func (m *Memory) forEachPage(fn func(pn uint64, p *page)) {
	for i, mid := range m.root {
		if mid == nil {
			continue
		}
		for j, leaf := range mid {
			if leaf == nil {
				continue
			}
			base := uint64(i)<<(midBits+leafBits) | uint64(j)<<leafBits
			for k, p := range leaf {
				if p != nil {
					fn(base|uint64(k), p)
				}
			}
		}
	}
	pns := make([]uint64, 0, len(m.overflow))
	for pn := range m.overflow {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	for _, pn := range pns {
		fn(pn, m.overflow[pn])
	}
}

// Populated returns the number of resident pages (footprint in pages).
func (m *Memory) Populated() int { return m.npages }

// FootprintBytes returns the resident memory footprint in bytes.
func (m *Memory) FootprintBytes() uint64 { return uint64(m.npages) * PageSize }

// ReadBytes copies size bytes starting at addr into a fresh slice.
// Unpopulated memory reads as zero.
func (m *Memory) ReadBytes(addr, size uint64) []byte {
	out := make([]byte, size)
	for i := uint64(0); i < size; {
		p := m.pageFor(addr+i, false)
		off := (addr + i) % PageSize
		n := PageSize - off
		if n > size-i {
			n = size - i
		}
		if p != nil {
			copy(out[i:i+n], p.data[off:off+n])
		}
		i += n
	}
	m.BytesRead += size
	return out
}

// WriteBytes stores b at addr, clearing the tags of every granule the
// write overlaps (a non-capability store cannot forge tags).
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	size := uint64(len(b))
	for i := uint64(0); i < size; {
		p := m.pageFor(addr+i, true)
		off := (addr + i) % PageSize
		n := PageSize - off
		if n > size-i {
			n = size - i
		}
		copy(p.data[off:off+n], b[i:i+n])
		i += n
	}
	m.clearTags(addr, size)
	m.BytesWritten += size
}

// ReadUint reads a little-endian unsigned integer of size 1, 2, 4 or 8.
func (m *Memory) ReadUint(addr, size uint64) uint64 {
	off := addr % PageSize
	if off+size <= PageSize { // fast path: within one page, no allocation
		m.BytesRead += size
		p := m.pageFor(addr, false)
		if p == nil {
			return 0
		}
		var v uint64
		for i := uint64(0); i < size; i++ {
			v |= uint64(p.data[off+i]) << (8 * i)
		}
		return v
	}
	var buf [8]byte
	copy(buf[:size], m.ReadBytes(addr, size))
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteUint writes a little-endian unsigned integer of size 1, 2, 4 or 8.
func (m *Memory) WriteUint(addr, val, size uint64) {
	off := addr % PageSize
	if off+size <= PageSize { // fast path: within one page, no allocation
		p := m.pageFor(addr, true)
		for i := uint64(0); i < size; i++ {
			p.data[off+i] = byte(val >> (8 * i))
		}
		m.clearTags(addr, size)
		m.BytesWritten += size
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	m.WriteBytes(addr, buf[:size])
}

// tagIndex returns the page and tag-slot for a 16-byte-aligned address.
func (m *Memory) tagIndex(addr uint64, create bool) (*page, int) {
	p := m.pageFor(addr, create)
	return p, int(addr%PageSize) / cap.TagGranule
}

// clearTags invalidates every tag granule overlapped by [addr, addr+size).
func (m *Memory) clearTags(addr, size uint64) {
	first := addr &^ (cap.TagGranule - 1)
	for a := first; a < addr+size; a += cap.TagGranule {
		if p, i := m.tagIndex(a, false); p != nil {
			p.tags[i] = false
		}
	}
}

// WriteCap stores a 16-byte capability image at a 16-byte-aligned address,
// setting or clearing the granule tag per the capability's validity. An
// aligned image never straddles a page.
func (m *Memory) WriteCap(addr uint64, e cap.Encoded, tag bool) error {
	if addr%cap.Size != 0 {
		return fmt.Errorf("mem: unaligned capability store at %#x", addr)
	}
	p, off := m.pageFor(addr, true), addr%PageSize
	binary.LittleEndian.PutUint64(p.data[off:off+8], e.Addr)
	binary.LittleEndian.PutUint64(p.data[off+8:off+cap.Size], e.Meta)
	p.tags[off/cap.TagGranule] = tag
	m.BytesWritten += cap.Size
	return nil
}

// ReadCap loads a 16-byte capability image and its tag from a 16-byte-
// aligned address, in place: unpopulated memory reads as an untagged
// zero image.
func (m *Memory) ReadCap(addr uint64) (cap.Encoded, bool, error) {
	if addr%cap.Size != 0 {
		return cap.Encoded{}, false, fmt.Errorf("mem: unaligned capability load at %#x", addr)
	}
	m.BytesRead += cap.Size
	p := m.pageFor(addr, false)
	if p == nil {
		return cap.Encoded{}, false, nil
	}
	off := addr % PageSize
	e := cap.Encoded{
		Addr: binary.LittleEndian.Uint64(p.data[off : off+8]),
		Meta: binary.LittleEndian.Uint64(p.data[off+8 : off+cap.Size]),
	}
	return e, p.tags[off/cap.TagGranule], nil
}

// ClearTag invalidates the tag of the granule containing addr, leaving the
// data intact — the effect of a tag-bit upset or tag-cache line corruption
// (and of the architectural CLRTAG on an in-memory capability). It reports
// whether a set tag was actually cleared.
func (m *Memory) ClearTag(addr uint64) bool {
	p, idx := m.tagIndex(addr&^(cap.TagGranule-1), false)
	if p == nil || !p.tags[idx] {
		return false
	}
	p.tags[idx] = false
	return true
}

// TagAt reports the tag of the granule containing addr.
func (m *Memory) TagAt(addr uint64) bool {
	p, idx := m.tagIndex(addr&^(cap.TagGranule-1), false)
	return p != nil && p.tags[idx]
}

// ForEachTaggedGranule invokes fn for every granule whose tag is set, in
// ascending address order. It is the revocation sweeper's scan primitive;
// fn must not write memory.
func (m *Memory) ForEachTaggedGranule(fn func(addr uint64)) {
	m.forEachPage(func(pn uint64, p *page) {
		for i, tagged := range p.tags {
			if tagged {
				fn(pn*PageSize + uint64(i)*cap.TagGranule)
			}
		}
	})
}

// TaggedGranules counts set tags across memory (capability density probe,
// used by revocation-sweep style analyses).
func (m *Memory) TaggedGranules() (n uint64) {
	m.forEachPage(func(_ uint64, p *page) {
		for _, t := range p.tags {
			if t {
				n++
			}
		}
	})
	return n
}
