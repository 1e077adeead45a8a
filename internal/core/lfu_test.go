package core

import (
	"math/rand"
	"testing"

	"paradet/internal/isa"
)

// TestLFURingMatchesMap drives the load forwarding unit's occupancy
// ring with random captures over in-order commits, with capture windows
// both smaller and larger than the initial ring so growth happens with
// live flags, and checks occupancy and peak against a map of in-flight
// Seqs after every step.
func TestLFURingMatchesMap(t *testing.T) {
	for _, window := range []uint64{1, 40, 64, 65, 192, 500} {
		rng := rand.New(rand.NewSource(int64(window)))
		var l lfu
		ref := map[uint64]bool{}
		refPeak := 0
		next := uint64(1) // next Seq to commit
		var di isa.DynInst
		for step := 0; step < 20000; step++ {
			if rng.Intn(3) == 0 {
				di.Seq = next
				l.commit(&di)
				delete(ref, next)
				next++
			} else {
				di.Seq = next + uint64(rng.Int63n(int64(window)))
				l.capture(&di)
				ref[di.Seq] = true
				if len(ref) > refPeak {
					refPeak = len(ref)
				}
			}
			if l.n != len(ref) || l.peak != refPeak {
				t.Fatalf("window %d step %d: ring n=%d peak=%d, map n=%d peak=%d",
					window, step, l.n, l.peak, len(ref), refPeak)
			}
		}
	}
}
