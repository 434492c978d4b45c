// Package replay exists only so the frozen host-cost benchmark harness
// (hostbench/) still builds: it reads Stats through experiments.ReplayStats.
// The simulator has no replay path, so every counter is always zero.
package replay

// Stats holds the counters hostbench reads; they are always zero.
type Stats struct {
	Bytes        uint64
	FastpathUops uint64
}
