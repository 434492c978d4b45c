package check_test

import (
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/alloc"
	"cherisim/internal/cap"
	"cherisim/internal/mem"
	"cherisim/internal/refmodel"
)

// roundedSize is alloc.Heap's size class for a request: 16-byte aligned,
// and representability-rounded under the capability ABIs.
func roundedSize(a abi.ABI, size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	size = (size + 15) &^ 15
	if a.PointersAreCapabilities() {
		size = cap.RepresentableLength(size)
	}
	return size
}

// ownerScriptSize decodes an allocation request: small objects for most
// arguments, and sizes past 2^14 (where purecap rounding and alignment
// apply) for the top ones.
func ownerScriptSize(arg byte) uint64 {
	if arg < 24 {
		return uint64(arg)*40 + 1
	}
	return 1<<(arg-10) + 3
}

// runOwnerScript drives alloc.Heap and the linear-scan reference index
// with one byte script and compares every lookup after each step.
func runOwnerScript(t *testing.T, a abi.ABI, script []byte) {
	h := alloc.New(a, 0x40_0000_0000, 1<<32)
	ref := refmodel.NewOwners(a.PointersAreCapabilities())
	var addrs []uint64 // every address Alloc returned, live or not
	pick := func(arg byte) (uint64, bool) {
		if len(addrs) == 0 {
			return 0, false
		}
		return addrs[int(arg)%len(addrs)], true
	}
	for step, b := range script {
		op, arg := b>>5, b&31
		switch op {
		case 0, 1, 6: // Alloc
			addr, err := h.Alloc(ownerScriptSize(arg))
			if err != nil {
				t.Fatalf("%s step %d: alloc: %v", a, step, err)
			}
			size := roundedSize(a, ownerScriptSize(arg))
			if _, live := ref.SizeOf(addr); !live && ref.Overlaps(addr, size) {
				t.Fatalf("%s step %d: alloc %#x+%d overlaps a live block", a, step, addr, size)
			}
			ref.Alloc(addr, size)
			addrs = append(addrs, addr)
		case 2, 7: // Free, including double and invalid frees
			addr, ok := pick(arg)
			if !ok {
				continue
			}
			want := ref.Free(addr, h.Quarantine)
			if got := h.Free(addr) == nil; got != want {
				t.Fatalf("%s step %d: free %#x accepted=%v, reference %v", a, step, addr, got, want)
			}
		case 3: // Truncate
			addr, ok := pick(arg)
			if !ok {
				continue
			}
			n := uint64(arg) * 8
			if got, want := h.Truncate(addr, n), ref.Truncate(addr, n); got != want {
				t.Fatalf("%s step %d: truncate %#x to %d applied=%v, reference %v", a, step, addr, n, got, want)
			}
		case 4: // toggle quarantine
			h.Quarantine = !h.Quarantine
		case 5: // DrainQuarantine
			got, want := h.DrainQuarantine(), ref.Drain()
			if len(got) != len(want) {
				t.Fatalf("%s step %d: drained %v, reference %v", a, step, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s step %d: drained %v, reference %v", a, step, got, want)
				}
			}
		}
		want := ref.Live()
		if got := h.LiveCount(); got != len(want) {
			t.Fatalf("%s step %d: LiveCount %d, reference %d", a, step, got, len(want))
		}
		for i := -1; i <= len(want); i++ {
			var w alloc.Range
			if i >= 0 && i < len(want) {
				w = want[i]
			}
			if got := h.LiveRange(i); got != w {
				t.Fatalf("%s step %d: LiveRange(%d) %v, reference %v", a, step, i, got, w)
			}
		}
		for _, base := range addrs {
			gs, gok := h.SizeOf(base)
			ws, wok := ref.SizeOf(base)
			if gs != ws || gok != wok {
				t.Fatalf("%s step %d: SizeOf(%#x) (%d, %v), reference (%d, %v)", a, step, base, gs, gok, ws, wok)
			}
			span := ws
			if !wok {
				span = 16
			}
			for _, p := range []uint64{base - 1, base, base + span/2, base + span - 1, base + span} {
				gb, gsz, gok := h.Owner(p)
				wb, wsz, wok := ref.Owner(p)
				if gb != wb || gsz != wsz || gok != wok {
					t.Fatalf("%s step %d: Owner(%#x) (%#x, %d, %v), reference (%#x, %d, %v)",
						a, step, p, gb, gsz, gok, wb, wsz, wok)
				}
			}
		}
	}
}

// FuzzOwnerLockstep checks alloc.Heap's ownership index (Owner, SizeOf,
// LiveRange, LiveCount) against a linear-scan reference over byte-script
// programs of allocations, frees (double and invalid ones included),
// truncations and quarantine drains, under hybrid and purecap. Under
// hybrid a re-freed block is duplicated on its free list, so two later
// allocations alias it.
func FuzzOwnerLockstep(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x40, 0x41, 0x20, 0xC0})
	// Hybrid double free, then two allocations of its size class alias it.
	f.Add([]byte{0x05, 0x40, 0x40, 0x05, 0x05, 0xC0})
	// Truncate an allocation, then free it through quarantine and drain.
	f.Add([]byte{0x03, 0x1C, 0x60, 0x80, 0x40, 0x41, 0xA0, 0x03})
	// A hybrid double free re-committed after a truncation: the second
	// re-commit grows the block the Owner memo holds at its truncated size.
	f.Add([]byte("8AA8a8"))
	// Large (representability-rounded) allocations.
	f.Add([]byte{0x1A, 0x1F, 0x18, 0x41, 0x1B})
	f.Fuzz(func(t *testing.T, script []byte) {
		// Every step compares every lookup, so the cost is cubic in the
		// script length; 128 steps reach every path.
		if len(script) > 128 {
			script = script[:128]
		}
		for _, a := range []abi.ABI{abi.Hybrid, abi.Purecap} {
			runOwnerScript(t, a, script)
		}
	})
}

// memRegions are the bases of the address windows the memory scripts
// touch: each window straddles a page boundary, the 2^47 edge of the
// radix-mapped space, or lies far above it.
var memRegions = [4]uint64{
	2*mem.PageSize - 900,
	1<<47 - 900,
	1<<52 + 5*mem.PageSize - 900,
	1<<63 - 900,
}

// FuzzMemoryLockstep checks mem.Memory against a map-backed reference over
// byte-pair programs of integer and capability reads and writes, tag
// clears and probes, including page-straddling accesses and addresses at
// and above 2^47. The tag scan must visit the same granules in the same
// ascending order, and the resident-page counts must agree.
func FuzzMemoryLockstep(f *testing.F) {
	f.Add([]byte{0x00, 0x80, 0x01, 0x80, 0x02, 0x10, 0x06, 0x00})
	f.Add([]byte{0x08, 0x80, 0x0A, 0x82, 0x09, 0x80, 0x0B, 0x82, 0x0E, 0x00})
	f.Add([]byte{0x12, 0x7F, 0x1A, 0x7F, 0x14, 0x7F, 0x15, 0x7F, 0x1E, 0x00})
	f.Add([]byte{0xE0, 0xFF, 0x18, 0xFF, 0x02, 0x00, 0x1C, 0xFF, 0x06, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		m := mem.New()
		ref := refmodel.NewMemory()
		sizes := [4]uint64{1, 2, 4, 8}
		for i := 0; i+1 < len(script); i += 2 {
			op, b1 := script[i], script[i+1]
			addr := memRegions[op>>3&3] + uint64(b1)*7
			size := sizes[op>>5&3]
			val := uint64(i+1) * 0x0123_4567_89AB_CDEF
			switch op & 7 {
			case 0, 7:
				m.WriteUint(addr, val, size)
				ref.WriteUint(addr, val, size)
			case 1:
				if got, want := m.ReadUint(addr, size), ref.ReadUint(addr, size); got != want {
					t.Fatalf("step %d: ReadUint(%#x, %d) %#x, reference %#x", i, addr, size, got, want)
				}
			case 2:
				e := cap.Encoded{Addr: val, Meta: ^val}
				tag := op&0x20 != 0
				if err := m.WriteCap(addr&^15, e, tag); err != nil {
					t.Fatalf("step %d: WriteCap(%#x): %v", i, addr&^15, err)
				}
				ref.WriteCap(addr&^15, e, tag)
			case 3:
				ge, gt, err := m.ReadCap(addr &^ 15)
				we, wt := ref.ReadCap(addr &^ 15)
				if err != nil || ge != we || gt != wt {
					t.Fatalf("step %d: ReadCap(%#x) (%+v, %v, %v), reference (%+v, %v)", i, addr&^15, ge, gt, err, we, wt)
				}
			case 4:
				if got, want := m.ClearTag(addr), ref.ClearTag(addr); got != want {
					t.Fatalf("step %d: ClearTag(%#x) %v, reference %v", i, addr, got, want)
				}
			case 5:
				if got, want := m.TagAt(addr), ref.TagAt(addr); got != want {
					t.Fatalf("step %d: TagAt(%#x) %v, reference %v", i, addr, got, want)
				}
			case 6:
				var got []uint64
				m.ForEachTaggedGranule(func(a uint64) { got = append(got, a) })
				want := ref.TaggedGranules()
				if len(got) != len(want) || m.TaggedGranules() != uint64(len(want)) {
					t.Fatalf("step %d: tagged granules %#x (count %d), reference %#x", i, got, m.TaggedGranules(), want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("step %d: tag scan order %#x, reference %#x", i, got, want)
					}
				}
			}
			if got, want := m.Populated(), ref.Populated(); got != want {
				t.Fatalf("step %d: Populated %d, reference %d", i, got, want)
			}
		}
	})
}
