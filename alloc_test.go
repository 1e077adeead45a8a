package paradet_test

// Allocation regression tests: the hot path (ooo core ready/wakeup
// scheduling, fixed fetch ring, scratch DynInsts, slice scheduler) does
// no per-instruction heap allocation, so a whole run's allocation count
// is small and — crucially — independent of instruction count. These
// bounds are ~10x the measured values to stay robust across Go
// releases, while still catching any reintroduced per-instruction
// allocation (which costs tens of thousands at these sample sizes).

import (
	"testing"

	"paradet"
)

func runAllocs(t *testing.T, instrs uint64) float64 {
	t.Helper()
	p, _, err := paradet.LoadWorkload("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	cfg := paradet.DefaultConfig()
	cfg.MaxInstrs = instrs
	return testing.AllocsPerRun(3, func() {
		if _, err := paradet.Run(cfg, p); err != nil {
			t.Error(err)
		}
	})
}

func TestRunAllocsBounded(t *testing.T) {
	if a := runAllocs(t, 20_000); a > 2000 {
		t.Errorf("protected 20k-instr run did %.0f allocs, want <= 2000 "+
			"(a per-instruction allocation crept back into the hot path)", a)
	}
}

// TestRunAllocsFlat pins the fetch-ring fix specifically: the old
// `fetchQ = fetchQ[1:]` pattern regrew the queue per fill, so allocation
// count scaled with instruction count. With fetch writing into fixed ROB
// slots (and the rest of the zero-alloc hot path) a 4x longer run may not cost more than a
// small additive overhead.
func TestRunAllocsFlat(t *testing.T) {
	short := runAllocs(t, 10_000)
	long := runAllocs(t, 40_000)
	if long > short+1500 {
		t.Errorf("allocations scale with instruction count: %.0f @10k vs %.0f @40k", short, long)
	}
}
