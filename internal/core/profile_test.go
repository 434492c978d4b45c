package core

import (
	"strings"
	"testing"

	"cherisim/internal/abi"
)

func TestProfileAttribution(t *testing.T) {
	m := New(abi.Hybrid)
	m.Func("main", 512, 64)
	hot := m.Func("hot", 512, 64)
	cold := m.Func("cold", 512, 64)
	err := m.Run(func(m *Machine) {
		for i := 0; i < 100; i++ {
			m.Call(hot, false)
			m.ALU(200)
			m.Return()
		}
		m.Call(cold, false)
		m.ALU(50)
		m.Return()
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := m.Profile(0)
	if len(prof) == 0 {
		t.Fatal("empty profile")
	}
	if prof[0].Name != "hot" {
		t.Errorf("top function = %s, want hot", prof[0].Name)
	}
	var hotShare, coldShare float64
	for _, p := range prof {
		switch p.Name {
		case "hot":
			hotShare = p.Share
		case "cold":
			coldShare = p.Share
		}
	}
	// Call/return spill costs are attributed to the caller (main), so the
	// callee's share tops out below its pure ALU proportion.
	if hotShare < 0.7 {
		t.Errorf("hot share = %.2f, want > 0.7", hotShare)
	}
	if coldShare >= hotShare {
		t.Error("cold hotter than hot")
	}
}

func TestProfileSharesSumToOne(t *testing.T) {
	m := New(abi.Purecap)
	m.Func("main", 512, 64)
	f := m.Func("work", 512, 64)
	_ = m.Run(func(m *Machine) {
		m.Call(f, false)
		arr := m.Alloc(1 << 18)
		for i := 0; i < 2000; i++ {
			m.Load(arr+Ptr(i*64), 8)
			m.ALU(2)
		}
		m.Return()
	})
	var sum float64
	for _, p := range m.Profile(0) {
		sum += p.Share
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("shares sum to %.3f", sum)
	}
}

func TestProfileStallsAttributedToIssuer(t *testing.T) {
	// A function that only misses in DRAM must own those stall cycles.
	m := New(abi.Hybrid)
	m.Func("main", 512, 64)
	misser := m.Func("misser", 512, 64)
	err := m.Run(func(m *Machine) {
		arr := m.Alloc(16 << 20)
		m.Call(misser, false)
		for i := 0; i < 5000; i++ {
			m.LoadDep(arr+Ptr((uint64(i)*7919*64)%(16<<20)), 8)
		}
		m.Return()
		m.ALU(100) // main's own cheap work
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := m.Profile(0)
	if prof[0].Name != "misser" || prof[0].Share < 0.9 {
		t.Errorf("stalls not attributed: top = %s (%.2f)", prof[0].Name, prof[0].Share)
	}
}

func TestFormatProfile(t *testing.T) {
	prof := []FnProfile{
		{Name: "a", Cycles: 1000, Uops: 500, Share: 0.8, Samples: 10},
		{Name: "b", Cycles: 250, Uops: 100, Share: 0.2, Samples: 2},
	}
	out := FormatProfile(prof, 1)
	if !strings.Contains(out, "a") || strings.Contains(out, "\nb") {
		t.Errorf("top-1 formatting wrong:\n%s", out)
	}
	if !strings.Contains(out, "80.0%") {
		t.Errorf("share missing:\n%s", out)
	}
}

// TestAttributionDirtyMaskComplete checks that every site which moves a
// stall accumulator or an attributed event sets its dirty bit: right after
// each attribute() call (the quantum hook runs next), the snapshots must
// equal the live values, or a charge was left for a later µop — or a
// later function — to pick up. The body reaches every charging site,
// revocation sweeps, external (fabric) stalls and an external LLC port
// included.
func TestAttributionDirtyMaskComplete(t *testing.T) {
	for _, a := range abi.All() {
		for _, port := range []LLCPort{nil, missPort{}} {
			checkDirtyMask(t, a, port)
		}
	}
}

// missPort is an external LLC fabric in which every access misses.
type missPort struct{}

func (missPort) Access(uint64, bool) (bool, uint64) { return false, 300 }

func checkDirtyMask(t *testing.T, a abi.ABI, port LLCPort) {
	cfg := DefaultConfig(a)
	cfg.TemporalSafety = true
	cfg.RevokeThresholdBytes = 4 << 10
	m := NewMachine(cfg)
	if port != nil {
		m.ShareLLCPort(port, 1)
	}
	var missed []string
	m.SetQuantum(1, func() {
		for c := AttrFrontend; c < NumAttrCategories; c++ {
			if m.stall(c) != m.lastCat[c] {
				missed = append(missed, c.String())
			}
		}
		for e := AttrEvent(0); e < NumAttrEvents; e++ {
			if m.event(e) != m.lastEv[e] {
				missed = append(missed, e.String())
			}
		}
	})
	m.Func("main", 4096, 64)
	leaf := m.Func("leaf", 8192, 32)
	err := m.Run(func(m *Machine) {
		var live []Ptr
		stream := m.Alloc(1 << 18)
		for i := 0; i < 3000; i++ {
			// A cold streaming line on an already-translated page:
			// a DRAM-level load with no TLB walk beside it.
			m.Load(stream+Ptr(i%(1<<12)*64), 8)
			p := m.Alloc(uint64(64 + i%512))
			m.Store(p, uint64(i), 8)
			m.StorePtr(p+16, p)
			live = append(live, p)
			m.Call(leaf, i%3 == 0)
			m.LoadDep(live[(i*7)%len(live)], 8)
			m.LoadPtr(live[(i*13)%len(live)] + 16)
			m.BranchAt(uint64(i%17), i%5 == 0)
			m.FP(3)
			m.SIMD(2)
			m.Crypto(1)
			m.CapManip(1)
			m.CapCodegen(2)
			m.Return()
			m.CallVirtual(leaf)
			m.ALU(2)
			m.Return()
			m.AddExternalStall(1.5)
			if i%3 == 0 && len(live) > 8 {
				m.Free(live[0])
				live = live[1:]
			}
		}
	})
	if err != nil {
		t.Fatalf("%s port=%v: %v", a, port, err)
	}
	if len(missed) > 0 {
		t.Fatalf("%s port=%v: moved without a dirty bit: %v", a, port, missed)
	}
	if a == abi.Purecap {
		if len(m.Revocations()) == 0 {
			t.Fatal("purecap: no revocation sweep ran")
		}
		for c := AttrFrontend; c < NumAttrCategories; c++ {
			if m.stall(c) == 0 {
				t.Errorf("purecap: category %s never charged", c)
			}
		}
		for e := AttrEvent(0); e < NumAttrEvents; e++ {
			if m.event(e) == 0 {
				t.Errorf("purecap: event %s never counted", e)
			}
		}
	}
}
