package ooo

import (
	"testing"

	"paradet/internal/isa"
	"paradet/internal/sim"
)

// refuseUntil is a commit gate that refuses every commit until a
// release time set on its first call, like a log whose segments are all
// busy until a checker frees one.
type refuseUntil struct {
	hold        sim.Time // refusal span, measured from the first call
	release     sim.Time
	firstTry    sim.Time
	firstCommit sim.Time
	refusals    uint64
	commits     uint64
}

func (g *refuseUntil) TryCommit(di *isa.DynInst, now sim.Time) (sim.Time, bool) {
	if g.release == 0 {
		g.firstTry, g.release = now, now+g.hold
	}
	if now < g.release {
		g.refusals++
		return 0, false
	}
	if g.commits == 0 {
		g.firstCommit = now
	}
	g.commits++
	return 0, true
}

func (g *refuseUntil) OnLoadData(*isa.DynInst, sim.Time) {}

func TestGateRefusalTicksEveryCycle(t *testing.T) {
	cfg := NewTableIConfig()
	p := cfg.Clock.Period
	// A dependent divide chain keeps issue timers pending while commit
	// is refused, so a core that skipped ahead to them after a refusal
	// would retry the gate less than once per cycle. The release time
	// falls between two edges.
	g := &refuseUntil{hold: cfg.Clock.Duration(300) + p/2}
	c := buildCoreConfig(t, cfg, assemble(t, repeat("div x1, x1, x10")), g, 400)
	st := runToCompletion(t, c)

	if want := cfg.Clock.NextEdge(g.release); g.firstCommit != want {
		t.Errorf("first commit at %v, want the first core edge at or after the release, %v",
			g.firstCommit, want)
	}
	if cycles := uint64((g.firstCommit - g.firstTry) / p); g.refusals != cycles {
		t.Errorf("gate refused %d times over %d cycles, want once per cycle", g.refusals, cycles)
	}
	if st.LogFullStallCycles != g.refusals {
		t.Errorf("LogFullStallCycles = %d, want the %d refused cycles", st.LogFullStallCycles, g.refusals)
	}
	if g.commits != st.Instructions {
		t.Errorf("gate accepted %d commits, core retired %d", g.commits, st.Instructions)
	}
}

func TestMissBoundCoreSkipsIdleCycles(t *testing.T) {
	// Dependent loads striding over 8 MiB: the core spends most cycles
	// waiting on a miss with nothing else to do.
	src := `
_start:
	li  x1, 0x1000000
	movz x2, 0
loop:
	ldrd x3, [x1]
	add  x1, x1, x3
	addi x1, x1, 4096
	li   x6, 0x7fffff
	and  x5, x1, x6
	li   x6, 0x1000000
	orr  x1, x5, x6
	addi x2, x2, 1
	li   x7, 2000
	blt  x2, x7, loop
	hlt
`
	cfg := NewTableIConfig()
	c := buildCoreConfig(t, cfg, assemble(t, src), nil, 0)
	st := runToCompletion(t, c)
	if st.Ticks >= st.Cycles {
		t.Fatalf("Ticks = %d, want fewer activations than the %d cycles simulated", st.Ticks, st.Cycles)
	}
	// Skipped cycles still count: the core started at time 0 and
	// finished on its last edge, so every edge in between is a cycle.
	if want := uint64(st.FinishTime/cfg.Clock.Period) + 1; st.Cycles != want {
		t.Errorf("Cycles = %d, want one per edge up to FinishTime, %d", st.Cycles, want)
	}
	t.Logf("cycles=%d ticks=%d (%.0f%% skipped)", st.Cycles, st.Ticks,
		100*(1-float64(st.Ticks)/float64(st.Cycles)))
}

// commitTimes records when each instruction commits.
type commitTimes struct {
	ops   []isa.Op
	times []sim.Time
}

func (g *commitTimes) TryCommit(di *isa.DynInst, now sim.Time) (sim.Time, bool) {
	g.ops = append(g.ops, di.Inst.Op)
	g.times = append(g.times, now)
	return 0, true
}

func (g *commitTimes) OnLoadData(*isa.DynInst, sim.Time) {}

func TestWorkBehindAMissFinishesDuringIt(t *testing.T) {
	// The head load misses to memory and nothing else is in flight, so
	// each cycle after the body issues is idle until the next timer. The
	// two instructions after the load must still issue on time and
	// retire with it: skipping straight to the load's completion would
	// issue the second of them late.
	for _, tc := range []struct{ name, setup, body string }{
		{"divider busy horizon", "", "div x4, x10, x11\n\tdiv x5, x10, x11"},
		{"FP divider busy horizon", "scvtf f1, x10\n\tscvtf f2, x11", "fdiv f3, f1, f2\n\tfdiv f4, f1, f2"},
		{"operand readiness", "", "mul x4, x10, x11\n\tadd x5, x4, x4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := `
_start:
	li   x1, 0x1000000
	movz x10, 100
	movz x11, 7
	` + tc.setup + `
	ldrd x3, [x1]
	` + tc.body + `
	hlt
`
			g := &commitTimes{}
			cfg := NewTableIConfig()
			st := runToCompletion(t, buildCoreConfig(t, cfg, assemble(t, src), g, 0))
			n := len(g.ops)
			if n < 5 || !g.ops[n-4].IsLoad() {
				t.Fatalf("commit order %v: want the load fourth from last", g.ops)
			}
			load, last := g.times[n-4], g.times[n-2]
			if gap := cfg.Clock.Cycles(load - g.times[n-5]); gap < int64(2*cfg.IntDivLat) {
				t.Fatalf("load retired %d cycles after its predecessor: the miss is too short to hide the body", gap)
			}
			if last != load {
				t.Errorf("body retired %d cycles after the load, want the same cycle",
					cfg.Clock.Cycles(last-load))
			}
			if st.Ticks >= st.Cycles {
				t.Errorf("Ticks = %d, want fewer than the %d cycles of a miss-bound run", st.Ticks, st.Cycles)
			}
		})
	}
}
