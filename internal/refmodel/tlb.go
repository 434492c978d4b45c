package refmodel

import "cherisim/internal/tlb"

// TLB is the reference translation cache: fully associative with LRU
// replacement, looked up by a plain linear scan over every entry — no hash
// index, no last-translation memo. It works in VPN space directly, which
// is what the tlb.Shadow interface reports.
type TLB struct {
	cfg     tlb.Config
	entries []tlb.EntryState
	seq     uint64
	Stats   tlb.Stats
}

// NewTLB builds a reference TLB with the same geometry as tlb.New.
func NewTLB(cfg tlb.Config) *TLB {
	return &TLB{cfg: cfg, entries: make([]tlb.EntryState, cfg.Entries)}
}

// Lookup translates vpn, returning whether it hit this level. A hit
// touches the entry's LRU; accounting matches tlb.TLB.Lookup (including
// its memo fast path, which is specified to be hit-identical).
func (t *TLB) Lookup(vpn uint64) bool {
	t.Stats.Accesses++
	t.seq++
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].VPN == vpn {
			t.entries[i].LRU = t.seq
			return true
		}
	}
	t.Stats.Misses++
	return false
}

// Insert installs a translation for vpn: refreshing in place when the page
// is already resident, else replacing the first invalid entry, else the
// least-recently-used one (earliest index on ties).
func (t *TLB) Insert(vpn uint64) {
	t.seq++
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].VPN == vpn {
			t.entries[i].LRU = t.seq
			return
		}
	}
	victim := -1
	for i := range t.entries {
		if !t.entries[i].Valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range t.entries {
			if t.entries[i].LRU < t.entries[victim].LRU {
				victim = i
			}
		}
	}
	t.entries[victim] = tlb.EntryState{VPN: vpn, Valid: true, LRU: t.seq}
}

// InvalidateAll flushes the TLB.
func (t *TLB) InvalidateAll() {
	for i := range t.entries {
		t.entries[i] = tlb.EntryState{}
	}
}

// AppendEntryState appends a snapshot of every entry to dst.
func (t *TLB) AppendEntryState(dst []tlb.EntryState) []tlb.EntryState {
	return append(dst, t.entries...)
}
