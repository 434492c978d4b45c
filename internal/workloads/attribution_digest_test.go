package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cherisim/internal/abi"
)

// attributionDigest is the SHA-256 of every (workload, ABI) pair's
// per-function attribution profile at scale 1, JSON-encoded and
// concatenated in All() x abi.All() order. The profile carries each
// function's float category split, so any change to how stalls and events
// are charged (the order of additions, the µop a delta lands on) moves it.
const attributionDigest = "c58b92a5ca5def6c3bb2d1503201097e9ba48ea9919fc11cb416dcb2acf00083"

// TestAttributionDigest pins per-function attribution bit-for-bit across
// the whole 60-pair grid.
func TestAttributionDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("executes all 60 (workload, ABI) pairs")
	}
	h := sha256.New()
	for _, w := range All() {
		for _, a := range abi.All() {
			m, err := Execute(w, a, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, a, err)
			}
			b, err := json.Marshal(m.AttributionProfile())
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, a, err)
			}
			h.Write(b)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != attributionDigest {
		t.Fatalf("attribution digest %s, want %s", got, attributionDigest)
	}
}
