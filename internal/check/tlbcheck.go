package check

import (
	"fmt"

	"cherisim/internal/refmodel"
	"cherisim/internal/tlb"
)

// TLBChecker replays every operation of one optimized TLB on a naive
// linear-scan reference and diffs the two after each step. Lookups are
// compared on outcome and statistics (any LRU-touch bug still surfaces at
// the next insertion's full state compare); insertions and flushes are
// compared on the complete entry array, and insertions additionally run
// the optimized TLB's own structural invariant check, which is what pins
// the index-corruption class of bug to the exact insert that causes
// it.
type TLBChecker struct {
	name string
	opt  *tlb.TLB
	ref  *refmodel.TLB
	col  *Collector
	ring opRing
	dead bool
	// Reused snapshot buffers keep the per-insert compare allocation-free.
	optBuf, refBuf []tlb.EntryState
}

// AttachTLB installs a lockstep checker behind t, which must be freshly
// built (empty, zero stats) so the reference model starts in the same
// state. A TLB that already has a shadow — the shared L2 TLB seen from
// the second hierarchy, typically — is left alone and nil is returned.
func AttachTLB(col *Collector, t *tlb.TLB) *TLBChecker {
	if t.Shadowed() {
		return nil
	}
	k := &TLBChecker{
		name: t.Config().Name,
		opt:  t,
		ref:  refmodel.NewTLB(t.Config()),
		col:  col,
	}
	t.SetShadow(k)
	return k
}

// Lookup implements tlb.Shadow.
func (k *TLBChecker) Lookup(vpn uint64, hit bool) {
	if k.dead {
		return
	}
	k.col.operation()
	k.ring.push(traceOp{kind: opTLBLookup, a: vpn})
	refHit := k.ref.Lookup(vpn)
	if refHit != hit {
		k.diverge(fmt.Sprintf("hit: optimized %v, reference %v", hit, refHit))
		return
	}
	if k.opt.Stats != k.ref.Stats {
		k.diverge(fmt.Sprintf("stats: optimized %+v, reference %+v", k.opt.Stats, k.ref.Stats))
	}
}

// Insert implements tlb.Shadow.
func (k *TLBChecker) Insert(vpn uint64) {
	if k.dead {
		return
	}
	k.col.operation()
	k.ring.push(traceOp{kind: opTLBInsert, a: vpn})
	k.ref.Insert(vpn)
	if err := k.opt.CheckInvariants(); err != nil {
		k.diverge(fmt.Sprintf("invariant: %v", err))
		return
	}
	k.compareState()
}

// InvalidateAll implements tlb.Shadow.
func (k *TLBChecker) InvalidateAll() {
	if k.dead {
		return
	}
	k.col.operation()
	k.ring.push(traceOp{kind: opTLBFlush})
	k.ref.InvalidateAll()
	k.compareState()
}

// compareState diffs statistics and the full entry array.
func (k *TLBChecker) compareState() {
	if k.opt.Stats != k.ref.Stats {
		k.diverge(fmt.Sprintf("stats: optimized %+v, reference %+v", k.opt.Stats, k.ref.Stats))
		return
	}
	k.optBuf = k.opt.AppendEntryState(k.optBuf[:0])
	k.refBuf = k.ref.AppendEntryState(k.refBuf[:0])
	for i := range k.optBuf {
		if k.optBuf[i] != k.refBuf[i] {
			k.diverge(fmt.Sprintf("entry %d: optimized %+v, reference %+v", i, k.optBuf[i], k.refBuf[i]))
			return
		}
	}
}

// Dead reports whether the checker has stopped after a divergence.
func (k *TLBChecker) Dead() bool { return k.dead }

// diverge reports the mismatch; the diverging operation is the one last
// pushed onto the trace ring.
func (k *TLBChecker) diverge(detail string) {
	k.dead = true
	k.col.record(&Divergence{
		Component: k.name,
		Step:      k.ring.n,
		Op:        k.ring.ops[(k.ring.n-1)%traceDepth].String(),
		Detail:    detail,
		Trace:     k.ring.snapshot(),
	})
}
