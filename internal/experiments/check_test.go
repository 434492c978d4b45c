package experiments

import (
	"strings"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/core"
)

// TestFig1UnderCheckHasNoDivergences runs a full figure-1 regeneration with
// the lockstep reference-model checker attached to every machine and
// requires that the optimized cache/TLB/bounds implementations never
// diverge from the naive reference models. This is the end-to-end
// differential test: every memory access and bounds operation the workload
// suite performs is double-checked.
func TestFig1UnderCheckHasNoDivergences(t *testing.T) {
	s := NewSession(1)
	s.Check = true
	defer s.CloseCheck()
	e, _ := ByID("fig1")
	out, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.CheckReport()
	if rep.Accesses == 0 {
		t.Fatal("checker observed no operations; the shadow is not attached")
	}
	if rep.Divergences != 0 {
		for _, d := range rep.First {
			t.Errorf("divergence: %s", d)
		}
		t.Fatalf("fig1 under -check: %d divergences in %d operations", rep.Divergences, rep.Accesses)
	}
	t.Logf("fig1 under -check: %d operations verified, 0 divergences", rep.Accesses)

	// The checker is observation-only: rendered output must be identical
	// to an unchecked run.
	plain := NewSession(1)
	ref, err := e.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if out != ref {
		t.Error("checked run rendered different output than unchecked run")
	}
}

// TestMulticoreUnderCheckSharesShadows exercises the shared-LLC co-run
// path: four cores feed one system-level cache, and the checker must
// attach its LLC shadow exactly once while still verifying the private
// L1/L2 and TLBs of every core.
func TestMulticoreUnderCheckSharesShadows(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore co-run is slow")
	}
	s := NewSession(1)
	s.Check = true
	defer s.CloseCheck()
	e, _ := ByID("ext-multicore")
	out, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "co-run") {
		t.Errorf("unexpected ext-multicore output:\n%s", out)
	}
	rep := s.CheckReport()
	if rep.Accesses == 0 {
		t.Fatal("checker observed no operations during the co-run")
	}
	if rep.Divergences != 0 {
		for _, d := range rep.First {
			t.Errorf("divergence: %s", d)
		}
		t.Fatalf("ext-multicore under -check: %d divergences in %d operations", rep.Divergences, rep.Accesses)
	}
}

// TestAblationRunsCheckedAndCounted: an ablation's modified-configuration
// runs belong to the parent session. The lockstep checker shadows them and
// Executions counts them, on top of the base runs the prefetch covered.
func TestAblationRunsCheckedAndCounted(t *testing.T) {
	e, err := ByID("ablation-predictor")
	if err != nil {
		t.Fatal(err)
	}
	// The checked operations of the modified-config purecap runs alone.
	ref := NewSession(1)
	ref.Check = true
	ref.Configure = func(c *core.Config) { c.TracksPCCBounds = true }
	ref.Prefetch(namedPairs(ablationSet, abi.Purecap))
	want := ref.CheckReport().Accesses
	ref.CloseCheck()

	s := NewSession(1)
	s.Check = true
	defer s.CloseCheck()
	s.Prefetch(e.Pairs())
	execs, accesses := s.Executions(), s.CheckReport().Accesses
	if _, err := e.Run(s); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Executions()-execs, uint64(len(ablationSet)); got != want {
		t.Errorf("rendering the ablation added %d executions, want %d (one modified-config purecap run per workload)", got, want)
	}
	rep := s.CheckReport()
	if got := rep.Accesses - accesses; got < want {
		t.Errorf("rendering the ablation added %d checked operations, want at least the %d of its modified-config runs", got, want)
	}
	if rep.Divergences != 0 {
		t.Errorf("ablation under -check: %d divergences: %v", rep.Divergences, rep.First)
	}
}
