// Package tlb models the Neoverse N1 translation machinery: small
// fully-associative L1 instruction and data TLBs, a larger unified L2 TLB,
// and a page-table walker whose activity surfaces as the ITLB_WALK /
// DTLB_WALK PMU events the paper analyses in §4.7.
package tlb

import (
	"fmt"
	"math/bits"
)

// Config describes one TLB level.
type Config struct {
	Name    string
	Entries int
	PageLog uint // log2 of page size translated
}

// Morello/N1 geometry: 48-entry L1 TLBs, 1280-entry unified L2 TLB,
// 4 KiB granule.
var (
	L1IConfig = Config{Name: "L1I-TLB", Entries: 48, PageLog: 12}
	L1DConfig = Config{Name: "L1D-TLB", Entries: 48, PageLog: 12}
	L2Config  = Config{Name: "L2-TLB", Entries: 1280, PageLog: 12}
)

// WalkLatency is the cost in cycles of a page-table walk that misses all
// TLB levels (four sequential memory accesses hitting mid-hierarchy).
const WalkLatency = 45

type entry struct {
	vpn   uint64
	valid bool
	lru   uint64
}

// Stats exposes TLB activity to the PMU.
type Stats struct {
	Accesses uint64 // L1x_TLB in the paper's tables
	Misses   uint64 // L1 misses (refills from L2 or walker)
}

// Shadow observes every state-changing TLB operation after it completes.
// internal/check installs a lockstep reference model behind it; a nil
// shadow costs one pointer test per operation and nothing else. Shadows
// must not touch the TLB they are attached to beyond the read-only
// snapshot/stats accessors.
type Shadow interface {
	// Lookup reports one completed lookup (memo fast path included) and
	// whether it hit this level.
	Lookup(vpn uint64, hit bool)
	// Insert reports one completed translation install.
	Insert(vpn uint64)
	// InvalidateAll reports a completed flush.
	InvalidateAll()
}

// EntryState is a read-only snapshot of one TLB entry, exposed for the
// lockstep checker's state comparison.
type EntryState struct {
	VPN   uint64
	Valid bool
	LRU   uint64
}

// TLB is one translation-cache level, fully associative with LRU
// replacement (adequate at these sizes and matches N1 behaviour closely).
// A hash index over the VPNs keeps lookups O(1); it is only a lookup
// structure and plays no part in which entry is replaced.
//
// A one-entry last-translation memo (lastVPN/lastSlot) fronts the index:
// workload access streams overwhelmingly stay on one page across
// consecutive references, and the memo turns those lookups into two
// compares instead of a hash-chain walk. The memo is a verified hint — the
// slot is re-checked against valid+vpn, so eviction can never fabricate a
// hit — and its accounting (access count, LRU touch) is identical to the
// slow path's.
type TLB struct {
	cfg     Config
	entries []entry
	// buckets and chain are the VPN index: buckets[t.bucket(vpn)] is the
	// first slot of that bucket's chain and chain[slot] the next, -1
	// ending it. Exactly the valid entries are chained; shift turns the
	// multiplicative hash into a bucket number.
	buckets  []int32
	chain    []int32
	shift    uint
	seq      uint64
	lastVPN  uint64
	lastSlot int // -1 when the memo is empty
	// prev/next/head/tail maintain the entries as an intrusive recency
	// list mirroring the lru sequence numbers, so Insert's victim is the
	// tail in O(1) instead of a full scan for the minimum. nextFree is the
	// first never-used slot: entries only become valid in slot order and
	// are only invalidated all at once, so the invalid slots are exactly
	// [nextFree, len) and "first invalid slot" is nextFree.
	prev, next []int32
	head, tail int32
	nextFree   int
	shadow     Shadow
	Stats      Stats
}

// New builds a TLB from its configuration.
func New(cfg Config) *TLB {
	// Twice as many buckets as entries, rounded up to a power of two,
	// keeps chains to one or two slots.
	nb := 1
	for nb < 2*cfg.Entries {
		nb <<= 1
	}
	t := &TLB{
		cfg:      cfg,
		entries:  make([]entry, cfg.Entries),
		buckets:  make([]int32, nb),
		chain:    make([]int32, cfg.Entries),
		shift:    uint(64 - bits.TrailingZeros(uint(nb))),
		lastSlot: -1,
		prev:     make([]int32, cfg.Entries),
		next:     make([]int32, cfg.Entries),
		head:     -1,
		tail:     -1,
	}
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	return t
}

// bucket hashes vpn (Fibonacci hashing: the product's top bits depend on
// every VPN bit).
func (t *TLB) bucket(vpn uint64) int {
	return int(vpn * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the slot holding vpn, or -1.
func (t *TLB) find(vpn uint64) int {
	for i := t.buckets[t.bucket(vpn)]; i >= 0; i = t.chain[i] {
		if t.entries[i].vpn == vpn {
			return int(i)
		}
	}
	return -1
}

// unlink removes slot i, which holds vpn, from its bucket chain.
func (t *TLB) unlink(i int, vpn uint64) {
	p := &t.buckets[t.bucket(vpn)]
	for int(*p) != i {
		p = &t.chain[*p]
	}
	*p = t.chain[i]
}

// touch moves slot i to the head of the recency list (the equivalent of
// assigning it the newest lru sequence number).
func (t *TLB) touch(i int) {
	if t.head == int32(i) {
		return
	}
	p, n := t.prev[i], t.next[i]
	if p >= 0 {
		t.next[p] = n
	}
	if n >= 0 {
		t.prev[n] = p
	}
	if t.tail == int32(i) {
		t.tail = p
	}
	t.prev[i] = -1
	t.next[i] = t.head
	if t.head >= 0 {
		t.prev[t.head] = int32(i)
	}
	t.head = int32(i)
	if t.tail < 0 {
		t.tail = int32(i)
	}
}

// pushFront links a slot that is not currently in the recency list.
func (t *TLB) pushFront(i int) {
	t.prev[i] = -1
	t.next[i] = t.head
	if t.head >= 0 {
		t.prev[t.head] = int32(i)
	}
	t.head = int32(i)
	if t.tail < 0 {
		t.tail = int32(i)
	}
}

// fastHit records an L1-identical hit for vpn through the memo, or reports
// false (without touching stats) when the memo does not cover vpn.
func (t *TLB) fastHit(vpn uint64) bool {
	i := t.lastSlot
	if i < 0 || t.lastVPN != vpn {
		return false
	}
	e := &t.entries[i]
	if !e.valid || e.vpn != vpn {
		t.lastSlot = -1 // evicted underneath the memo
		return false
	}
	t.Stats.Accesses++
	t.seq++
	e.lru = t.seq
	t.touch(i)
	if t.shadow != nil {
		t.shadow.Lookup(vpn, true)
	}
	return true
}

// Lookup translates addr, returning whether the translation hit this level.
func (t *TLB) Lookup(addr uint64) bool {
	vpn := addr >> t.cfg.PageLog
	if t.fastHit(vpn) {
		return true
	}
	t.Stats.Accesses++
	t.seq++
	if i := t.find(vpn); i >= 0 {
		t.entries[i].lru = t.seq
		t.touch(i)
		t.lastVPN, t.lastSlot = vpn, i
		if t.shadow != nil {
			t.shadow.Lookup(vpn, true)
		}
		return true
	}
	t.Stats.Misses++
	if t.shadow != nil {
		t.shadow.Lookup(vpn, false)
	}
	return false
}

// Insert installs a translation for addr's page. Inserting a page that is
// already resident refreshes its entry in place (LRU touch), keeping the
// index and the entry array consistent: allocating a second slot for the
// same VPN would leave two valid entries for one page, one of them
// shadowed in its chain.
func (t *TLB) Insert(addr uint64) {
	vpn := addr >> t.cfg.PageLog
	t.seq++
	if i := t.find(vpn); i >= 0 {
		t.entries[i].lru = t.seq
		t.touch(i)
		t.lastVPN, t.lastSlot = vpn, i
		if t.shadow != nil {
			t.shadow.Insert(vpn)
		}
		return
	}
	// Victim: the first never-used slot, else the recency-list tail (the
	// valid entry with the minimum lru) — the same choice the full scan
	// makes, in O(1).
	var victim int
	if t.nextFree < len(t.entries) {
		victim = t.nextFree
		t.nextFree++
		t.pushFront(victim)
	} else {
		victim = int(t.tail)
		t.touch(victim)
	}
	if v := &t.entries[victim]; v.valid {
		t.unlink(victim, v.vpn)
	}
	t.entries[victim] = entry{vpn: vpn, valid: true, lru: t.seq}
	b := t.bucket(vpn)
	t.chain[victim] = t.buckets[b]
	t.buckets[b] = int32(victim)
	t.lastVPN, t.lastSlot = vpn, victim
	if t.shadow != nil {
		t.shadow.Insert(vpn)
	}
}

// InvalidateAll flushes the TLB.
func (t *TLB) InvalidateAll() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	t.lastSlot = -1
	t.head, t.tail = -1, -1
	t.nextFree = 0
	if t.shadow != nil {
		t.shadow.InvalidateAll()
	}
}

// SetShadow installs (or, with nil, removes) the TLB's lockstep observer
// and returns the previous one.
func (t *TLB) SetShadow(s Shadow) Shadow {
	prev := t.shadow
	t.shadow = s
	return prev
}

// Shadowed reports whether a lockstep observer is installed.
func (t *TLB) Shadowed() bool { return t.shadow != nil }

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// AppendEntryState appends a snapshot of every entry to dst and returns it,
// for the lockstep checker's state comparison.
func (t *TLB) AppendEntryState(dst []EntryState) []EntryState {
	for i := range t.entries {
		e := &t.entries[i]
		dst = append(dst, EntryState{VPN: e.vpn, Valid: e.valid, LRU: e.lru})
	}
	return dst
}

// CheckInvariants verifies the internal consistency the fast paths rely
// on: every valid entry is indexed at its own slot, every chained slot is
// a valid entry in its VPN's bucket, and no VPN occupies two slots. It
// exists for tests and the lockstep checker; the zero-allocation hot paths
// never call it.
func (t *TLB) CheckInvariants() error {
	// Walk the chains first, bounded, so a cycle is reported rather than
	// hanging the lookups below.
	chained := 0
	for b, i := range t.buckets {
		for ; i >= 0; i = t.chain[i] {
			if int(i) >= len(t.entries) || !t.entries[i].valid || t.bucket(t.entries[i].vpn) != b {
				return fmt.Errorf("tlb %s: bucket %d chains stale slot %d", t.cfg.Name, b, i)
			}
			if chained++; chained > len(t.entries) {
				return fmt.Errorf("tlb %s: index chain cycle", t.cfg.Name)
			}
		}
	}
	seen := make(map[uint64]int, len(t.entries))
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		if j, dup := seen[e.vpn]; dup {
			return fmt.Errorf("tlb %s: vpn %#x valid in slots %d and %d", t.cfg.Name, e.vpn, j, i)
		}
		seen[e.vpn] = i
		j := t.find(e.vpn)
		if j < 0 {
			return fmt.Errorf("tlb %s: valid vpn %#x in slot %d missing from index", t.cfg.Name, e.vpn, i)
		}
		if j != i {
			return fmt.Errorf("tlb %s: vpn %#x valid in slot %d but indexed at %d", t.cfg.Name, e.vpn, i, j)
		}
	}
	if chained != len(seen) {
		return fmt.Errorf("tlb %s: index chains %d slots, %d valid", t.cfg.Name, chained, len(seen))
	}
	// The recency list must cover exactly the valid entries in strictly
	// descending lru order: its tail is Insert's O(1) victim, so a mis-
	// ordered list silently changes replacement behaviour.
	listed := 0
	lastLRU := ^uint64(0)
	for i := t.head; i >= 0; i = t.next[i] {
		e := &t.entries[i]
		if !e.valid {
			return fmt.Errorf("tlb %s: invalid slot %d on recency list", t.cfg.Name, i)
		}
		if listed > 0 && e.lru >= lastLRU {
			return fmt.Errorf("tlb %s: recency list out of lru order at slot %d", t.cfg.Name, i)
		}
		lastLRU = e.lru
		if listed++; listed > len(t.entries) {
			return fmt.Errorf("tlb %s: recency list cycle", t.cfg.Name)
		}
	}
	if listed != len(seen) {
		return fmt.Errorf("tlb %s: recency list covers %d entries, %d valid", t.cfg.Name, listed, len(seen))
	}
	return nil
}

// Hierarchy bundles an L1 TLB with the shared L2 TLB and the walker, and
// produces the per-side walk counts.
type Hierarchy struct {
	L1 *TLB
	L2 *TLB
	// Walks counts page-table walks (the xTLB_WALK PMU event).
	Walks uint64
	// WalkCycles accumulates the latency contributed by walks.
	WalkCycles uint64
}

// NewHierarchy builds an L1+shared-L2 translation path.
func NewHierarchy(l1 Config, l2 *TLB) *Hierarchy {
	return &Hierarchy{L1: New(l1), L2: l2}
}

// FastHit resolves addr through the L1 TLB's last-translation memo alone:
// it reports true — with the exact stats and LRU accounting of an L1
// Lookup hit — when addr's page is the one the L1 translated last, and
// false (with no accounting at all) otherwise, in which case the caller
// must run the full Translate. It lets the per-access translation hot
// path skip the hierarchy walk entirely for same-page runs.
func (h *Hierarchy) FastHit(addr uint64) bool {
	return h.L1.fastHit(addr >> h.L1.cfg.PageLog)
}

// Translate runs the full translation for addr and returns the added
// latency in cycles (0 for an L1 hit).
func (h *Hierarchy) Translate(addr uint64) uint64 {
	if h.L1.Lookup(addr) {
		return 0
	}
	if h.L2.Lookup(addr) {
		h.L1.Insert(addr)
		return 5 // L2 TLB hit latency
	}
	// Page-table walk.
	h.Walks++
	h.WalkCycles += WalkLatency
	h.L2.Insert(addr)
	h.L1.Insert(addr)
	return WalkLatency
}
