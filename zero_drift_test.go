package paradet_test

// Zero-drift guard for timing-model refactors that change how cycles
// are simulated rather than what they compute (for example, skipping
// provably idle main-core cycles). It pins, for every workload under
// every scheme that drives the out-of-order core differently, the
// cycle count, finish time, commit-gate stall totals and the
// rename/I-cache stall totals from the telemetry header, followed by
// the text of every figure at a reduced sample. It complements
// pinned_stats.golden, which covers only the Table I protected system.
// Regenerate deliberately with:
//
//	go test -run TestZeroDriftGuard -update-drift-guard .

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paradet"
	"paradet/internal/experiments"
	"paradet/internal/obs/telemetry"
)

var updateDriftGuard = flag.Bool("update-drift-guard", false, "rewrite testdata/zero_drift.golden from current results")

const driftGuardInstrs = 20000

// driftGuardSchemes are the system variants the guard pins. Each
// exercises a distinct source of main-core stalls: the commit gate
// refusing (slow checkers), checkpoint pauses, interrupt seals, a
// second core geometry, and the two non-paradet baselines.
var driftGuardSchemes = []struct {
	name      string
	configure func(*paradet.Config)
	protected bool
}{
	{"tableI", func(*paradet.Config) {}, true},
	{"unprotected", func(*paradet.Config) {}, false},
	{"nochecker", func(c *paradet.Config) { c.DisableCheckers = true }, true},
	{"chk125mhz", func(c *paradet.Config) { c.CheckerHz = 125_000_000 }, true},
	{"interrupt1us", func(c *paradet.Config) { c.InterruptIntervalNS = 1000 }, true},
	{"bigcore", func(c *paradet.Config) { c.BigCore = true }, true},
}

func driftGuardSystemLine(t *testing.T, name, scheme string, cfg paradet.Config, p *paradet.Program, protected bool) string {
	t.Helper()
	// Interval 1 makes the probe's last sample the final commit, so the
	// header carries whole-run stall totals.
	probe := telemetry.New(1, 1)
	res, err := paradet.NewSystemBuilder(cfg, p).Protected(protected).WithTelemetry(probe).Run()
	if err != nil {
		t.Fatalf("%s/%s: %v", name, scheme, err)
	}
	var h telemetry.Header
	h.Finalize(probe)
	return fmt.Sprintf("%s %s instrs=%d cycles=%d time_ns=%v logfull=%d ckpt_ns=%v stall_rename=%d stall_icache=%d",
		name, scheme, res.Instructions, res.Cycles, res.TimeNS, res.LogFullStallCycles,
		res.CheckpointStallNS, h.RenameStallCycles, h.ICacheStallCycles)
}

func driftGuardBaselineLine(name string, res *paradet.BaselineResult) string {
	return fmt.Sprintf("%s %s instrs=%d cycles=%d time_ns=%v mean_delay_ns=%v max_delay_ns=%v",
		name, res.Scheme, res.Instructions, res.Cycles, res.TimeNS, res.MeanDelayNS, res.MaxDelayNS)
}

func TestZeroDriftGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload under eight schemes plus every figure")
	}
	var b strings.Builder
	for _, w := range paradet.Workloads() {
		p, _, err := paradet.LoadWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range driftGuardSchemes {
			cfg := paradet.DefaultConfig()
			cfg.MaxInstrs = driftGuardInstrs
			s.configure(&cfg)
			fmt.Fprintln(&b, driftGuardSystemLine(t, w.Name, s.name, cfg, p, s.protected))
		}
		cfg := paradet.DefaultConfig()
		cfg.MaxInstrs = driftGuardInstrs
		ls, err := paradet.RunLockstep(cfg, p, nil)
		if err != nil {
			t.Fatalf("%s/lockstep: %v", w.Name, err)
		}
		fmt.Fprintln(&b, driftGuardBaselineLine(w.Name, ls))
		rmt, err := paradet.RunRMT(cfg, p)
		if err != nil {
			t.Fatalf("%s/rmt: %v", w.Name, err)
		}
		fmt.Fprintln(&b, driftGuardBaselineLine(w.Name, rmt))
	}
	// Every figure, as `experiments -run all -instrs 20000` prints it.
	for _, name := range experiments.Names() {
		text, err := experiments.RunByName(name, experiments.Options{MaxInstrs: driftGuardInstrs})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintln(&b, text)
	}
	got := b.String()

	golden := filepath.Join("testdata", "zero_drift.golden")
	if *updateDriftGuard {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-drift-guard)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("timing drifted from %s at line %d:\n got: %s\nwant: %s\n"+
					"A change that only alters how cycles are simulated must never trip this.",
					golden, i+1, g, w)
			}
		}
	}
}
