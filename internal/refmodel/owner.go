package refmodel

import (
	"sort"

	"cherisim/internal/alloc"
)

// Owners is the reference allocation-ownership index of alloc.Heap: the
// live allocations in an unordered slice, every lookup a linear scan. It
// tracks which blocks are live, sitting on a free list (with multiplicity,
// so a hybrid double free is visible) or quarantined, but not where the
// allocator places a block: the caller reports each allocation's address
// and rounded size.
type Owners struct {
	// Capability reports whether the modelled ABI uses capabilities: a
	// free of a block that is not live is then always refused, where
	// hybrid tolerates re-freeing a block that is on a free list.
	Capability bool

	live        []alloc.Range
	free        map[uint64]int // block base -> copies on the free lists
	quarantined []alloc.Range
}

// NewOwners returns an empty index.
func NewOwners(capability bool) *Owners {
	return &Owners{Capability: capability, free: make(map[uint64]int)}
}

func (o *Owners) index(base uint64) int {
	for i, r := range o.live {
		if r.Base == base {
			return i
		}
	}
	return -1
}

// Alloc records that the heap returned base for a block of rounded size
// size. A block popped from a free list leaves it; re-committing a block
// that is still live (the hybrid double-free alias) takes the new size.
func (o *Owners) Alloc(base, size uint64) {
	if o.free[base] > 0 {
		o.free[base]--
	}
	if i := o.index(base); i >= 0 {
		o.live[i].Size = size
		return
	}
	o.live = append(o.live, alloc.Range{Base: base, Size: size})
}

// Free releases base, into quarantine when quarantine is set, and reports
// whether the heap must accept the free.
func (o *Owners) Free(base uint64, quarantine bool) bool {
	i := o.index(base)
	if i < 0 {
		if o.Capability || o.free[base] == 0 {
			return false
		}
		o.free[base]++
		return true
	}
	r := o.live[i]
	o.live = append(o.live[:i], o.live[i+1:]...)
	if quarantine {
		o.quarantined = append(o.quarantined, r)
	} else {
		o.free[base]++
	}
	return true
}

// Truncate shrinks the live block at base and reports whether it applied.
func (o *Owners) Truncate(base, size uint64) bool {
	i := o.index(base)
	if i < 0 || size == 0 || size >= o.live[i].Size {
		return false
	}
	o.live[i].Size = size
	return true
}

// Drain releases the quarantine to the free lists and returns it sorted by
// base.
func (o *Owners) Drain() []alloc.Range {
	out := o.quarantined
	o.quarantined = nil
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	for _, r := range out {
		o.free[r.Base]++
	}
	return out
}

// Owner returns the live block containing addr.
func (o *Owners) Owner(addr uint64) (base, size uint64, ok bool) {
	for _, r := range o.live {
		if addr >= r.Base && addr < r.Base+r.Size {
			return r.Base, r.Size, true
		}
	}
	return 0, 0, false
}

// SizeOf returns the size of the live block based at addr.
func (o *Owners) SizeOf(addr uint64) (uint64, bool) {
	if i := o.index(addr); i >= 0 {
		return o.live[i].Size, true
	}
	return 0, false
}

// Live returns the live blocks in base order.
func (o *Owners) Live() []alloc.Range {
	out := append([]alloc.Range(nil), o.live...)
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// Overlaps reports whether [base, base+size) intersects a live block.
func (o *Owners) Overlaps(base, size uint64) bool {
	for _, r := range o.live {
		if base < r.Base+r.Size && r.Base < base+size {
			return true
		}
	}
	return false
}
