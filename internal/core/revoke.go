package core

import (
	"sort"

	"cherisim/internal/alloc"
	"cherisim/internal/cap"
	"cherisim/internal/isa"
	"cherisim/internal/pmu"
)

// Heap temporal safety in the style of Cornucopia (Filardo et al.,
// Cornucopia Reloaded, ASPLOS 2024): freed allocations are quarantined
// instead of reused, and a revocation sweep scans every tagged capability
// in memory, invalidating those whose bounds fall inside quarantined
// ranges. Only after the sweep is the memory safe to reallocate —
// use-after-free then faults on the cleared tag instead of silently
// aliasing new data.
//
// The sweep's work is charged to the machine like any other execution:
// one capability load (and its cache traffic) per tagged granule, plus a
// capability store for each revoked capability. This makes the measured
// sweep overhead directly comparable to the 1–5 % figures the Cornucopia
// papers report.

// RevocationStats describes one sweep.
type RevocationStats struct {
	// GranulesScanned counts tagged granules whose capability was loaded
	// and checked.
	GranulesScanned uint64
	// CapsRevoked counts capabilities whose tags were cleared.
	CapsRevoked uint64
	// BytesReclaimed is the quarantined memory released for reuse.
	BytesReclaimed uint64
}

// Revoke performs a revocation sweep: drains the heap's quarantine and
// invalidates every in-memory capability pointing into the drained ranges.
// The sweep's memory traffic and instructions are charged to the machine.
// Returns zero stats when nothing was quarantined.
func (m *Machine) Revoke() RevocationStats {
	ranges := m.Heap.DrainQuarantine()
	var st RevocationStats
	if len(ranges) == 0 {
		return st
	}
	for _, r := range ranges {
		st.BytesReclaimed += r.Size
	}

	inQuarantine := func(addr uint64) bool {
		i := sort.Search(len(ranges), func(i int) bool { return ranges[i].Base > addr })
		if i == 0 {
			return false
		}
		r := ranges[i-1]
		return addr < r.Base+r.Size
	}

	// The sweep loop: load every tagged capability, check its bounds
	// against the quarantine set, clear revoked tags. Each step costs real
	// instructions and cache traffic.
	var revoked []uint64
	m.Mem.ForEachTaggedGranule(func(addr uint64) {
		st.GranulesScanned++
		m.uop(isa.LoadCap, 1)
		m.uop(isa.DP, 2) // bounds-vs-range comparison
		m.C.Inc(pmu.MEM_ACCESS_RD)
		m.C.Inc(pmu.CAP_MEM_ACCESS_RD)
		m.C.Inc(pmu.MEM_ACCESS_RD_CTAG)
		m.attrDirty |= evBit(EvCapMemRd)
		m.translateD(addr)
		lvl, lat := m.dataPath(addr, false)
		m.accountLoadStall(lvl, lat, Indep)

		enc, tag, err := m.Mem.ReadCap(addr)
		if err != nil || !tag {
			return
		}
		c := cap.Decode(enc, tag)
		if inQuarantine(c.Base()) {
			revoked = append(revoked, addr)
		}
	})

	// Clear the revoked tags (cannot mutate during iteration).
	for _, addr := range revoked {
		st.CapsRevoked++
		m.uop(isa.StoreCap, 1)
		m.C.Inc(pmu.MEM_ACCESS_WR)
		m.C.Inc(pmu.CAP_MEM_ACCESS_WR)
		m.C.Inc(pmu.MEM_ACCESS_WR_CTAG)
		m.attrDirty |= evBit(EvCapMemWr)
		m.dataPath(addr, true)
		enc, _, _ := m.Mem.ReadCap(addr)
		_ = m.Mem.WriteCap(addr, enc, false)
	}

	m.revocations = append(m.revocations, st)
	m.ownBase, m.ownSize = 0, 0
	return st
}

// Revocations returns the sweeps performed during the run.
func (m *Machine) Revocations() []RevocationStats { return m.revocations }

// EnableTemporalSafety turns on quarantine-on-free with automatic
// revocation sweeps once the quarantine exceeds thresholdBytes (0 uses a
// CheriBSD-like default of 256 KiB at simulation scale).
func (m *Machine) EnableTemporalSafety(thresholdBytes uint64) {
	if thresholdBytes == 0 {
		thresholdBytes = 256 << 10
	}
	m.Heap.Quarantine = true
	m.revokeThreshold = thresholdBytes
}

// maybeRevoke runs a sweep when the quarantine crosses the effective
// threshold; called from Free. As in Cornucopia, the threshold scales with
// the live heap (a sweep's cost is proportional to the capabilities in
// memory, so sweeping is only worthwhile once a comparable amount of
// memory is waiting in quarantine): the effective threshold is
// max(configured, live/4).
func (m *Machine) maybeRevoke() {
	if m.revokeThreshold == 0 {
		return
	}
	thr := m.revokeThreshold
	if dyn := m.Heap.Stats().LiveBytes / 4; dyn > thr {
		thr = dyn
	}
	if m.Heap.QuarantineBytes() >= thr {
		m.Revoke()
	}
}

var _ = alloc.Range{} // documented dependency: quarantine ranges come from alloc
