package lts_test

import (
	"testing"

	"repro/internal/algorithms"
	"repro/internal/lts"
	"repro/internal/machine"
)

// TestCollapseMatchesReferenceTableII checks the τ-SCC collapse against
// the hash-set reference on the implementation and specification LTS of
// every Table II row at 2 threads × 2 ops.
func TestCollapseMatchesReferenceTableII(t *testing.T) {
	cfg := algorithms.Config{Threads: 2, Ops: 2}
	opt := machine.Options{Threads: 2, Ops: 2, Workers: 1}
	for _, a := range algorithms.TableII() {
		for _, p := range []*machine.Program{a.Build(cfg), a.Spec(cfg)} {
			l, err := machine.Explore(p, opt)
			if err != nil {
				t.Fatalf("%s: %v", a.ID, err)
			}
			if l.Acts.Len() >= 1<<16 {
				t.Fatalf("%s: %d actions, beyond the reference's 16-bit keys", a.ID, l.Acts.Len())
			}
			if err := lts.DiffCollapseReference(l); err != nil {
				t.Errorf("%s: %v", a.ID, err)
			}
		}
	}
}
