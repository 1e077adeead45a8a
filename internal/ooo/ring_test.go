package ooo

import (
	"fmt"
	"testing"

	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/obs/telemetry"
	"paradet/internal/sim"
	"paradet/internal/trace"
)

// storeHeavy mixes byte, word, double and pair stores with forwarded
// loads and a data-dependent branch, so the window holds many stores
// and the front end stalls on mispredicts.
var storeHeavy = repeat(`
	strd x28, [sp, -64]
	strw x28, [sp, -40]
	stp  x1, x2, [sp, -32]
	ldrd x3, [sp, -64]
	andi x5, x28, 3
	beq  x5, xzr, skip
	strb x3, [sp, -8]
	ldp  x1, x2, [sp, -32]
skip:
	add  x1, x1, x3
`)

// orderGate checks, commit by commit, that the core retires exactly the
// reference oracle's dynamic instruction stream.
type orderGate struct {
	t   *testing.T
	ref *trace.Oracle
	n   uint64
}

func (g *orderGate) TryCommit(di *isa.DynInst, now sim.Time) (sim.Time, bool) {
	g.n++
	var want isa.DynInst
	if !g.ref.Next(&want) {
		g.t.Fatalf("commit %d past the end of the oracle stream", g.n)
	}
	if di.Seq != g.n || *di != want {
		g.t.Fatalf("commit %d: got %+v, oracle has %+v", g.n, *di, want)
	}
	return 0, true
}

func (g *orderGate) OnLoadData(di *isa.DynInst, at sim.Time) {}

// TestROBRingAcrossSizes runs (ROBEntries, FetchQueue) pairs whose sum
// crosses a power of two, since the ROB backing array also holds the
// fetch queue and the pending fetch slot.
func TestROBRingAcrossSizes(t *testing.T) {
	big := NewBigCoreConfig()
	sizes := []struct{ rob, fq int }{
		{40, 12}, {52, 12}, {8, 16}, {64, 1}, {big.ROBEntries, big.FetchQueue},
	}
	prog := assemble(t, storeHeavy)
	for _, sz := range sizes {
		t.Run(fmt.Sprintf("rob%d_fq%d", sz.rob, sz.fq), func(t *testing.T) {
			cfg := NewTableIConfig()
			if sz.rob == big.ROBEntries {
				cfg = big
			}
			cfg.ROBEntries, cfg.FetchQueue = sz.rob, sz.fq

			// Commits follow the oracle, Seq 1..N.
			gate := &orderGate{t: t, ref: trace.NewOracle(prog, mem.NewSparse(), 0)}
			c := buildCoreConfig(t, cfg, prog, gate, 0)
			if n := len(c.rob); n&(n-1) != 0 || n < sz.rob+sz.fq+1 {
				t.Fatalf("ROB backing array has %d slots for %d+%d+1", n, sz.rob, sz.fq)
			}
			probe := telemetry.New(1, 1<<16)
			c.AttachProbe(probe)
			st := runToCompletion(t, c)
			var extra isa.DynInst
			if gate.ref.Next(&extra) {
				t.Fatalf("core drained after %d commits; the oracle has more", gate.n)
			}
			if gate.n != st.Instructions || st.Stores == 0 {
				t.Fatalf("gate saw %d commits, core retired %d (%d stores)", gate.n, st.Instructions, st.Stores)
			}

			// The fetch queue never outgrows its configured capacity.
			maxFQ := 0
			for _, s := range probe.Samples() {
				maxFQ = max(maxFQ, s.FetchQ)
			}
			if maxFQ > sz.fq || maxFQ == 0 {
				t.Fatalf("fetch queue peaked at %d entries, capacity %d", maxFQ, sz.fq)
			}

			// Same program, same configuration: identical statistics
			// (the checking gate and the probe must not perturb timing).
			if again := runToCompletion(t, buildCoreConfig(t, cfg, prog, nil, 0)); again != st {
				t.Fatalf("two runs differ:\n%+v\n%+v", st, again)
			}
		})
	}
}
