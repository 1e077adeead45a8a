package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"paradet"
	"paradet/internal/asm"
	"paradet/internal/campaign"
	"paradet/internal/experiments"
	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/resultstore"
	"paradet/internal/sim"
	"paradet/internal/trace"
	"paradet/internal/workloads"
)

// deriveLayers turns per-kind simulator totals into per-layer costs.
// Each Simulator method's host time per committed instruction is
// measured directly, except fault classification, which is costed per
// classified cell because its record carries no instruction count. The
// layers inside a run are the differences between runs that enable one
// more mechanism each:
//
//	core.detector   = ckpt_only − unprotected (log, checkpoints, seals)
//	inorder.checkers = protected − ckpt_only  (checker cores)
//	ooo.self        = unprotected − oracle    (timing model, caches,
//	                                           branch predictor, engine)
//
// A difference whose two sides were not both measured is reported as 0.
func deriveLayers(k map[string]simTotals, oracleNSPerInstr float64) map[string]float64 {
	per := func(kind string) float64 { return k[kind].nsPerInstr() }
	diff := func(a, b float64) float64 {
		if a == 0 || b == 0 {
			return 0
		}
		return a - b
	}
	all := instrTotals(k)
	v := map[string]float64{
		"paradet.unprotected_ns_per_instr": per(kindUnprotected),
		"paradet.ckpt_only_ns_per_instr":   per(kindCkptOnly),
		"paradet.protected_ns_per_instr":   per(kindProtected),
		"paradet.fault_us_per_cell":        0,
		"core.detector_ns_per_instr":       diff(per(kindCkptOnly), per(kindUnprotected)),
		"inorder.checkers_ns_per_instr":    diff(per(kindProtected), per(kindCkptOnly)),
		"ooo.self_ns_per_instr":            diff(per(kindUnprotected), oracleNSPerInstr),
		"paradet.host_ns_per_cycle":        0,
	}
	if f := k[kindFault]; f.Calls > 0 {
		v["paradet.fault_us_per_cell"] = float64(f.NS) / float64(f.Calls) / 1e3
	}
	if all.Cycles > 0 {
		v["paradet.host_ns_per_cycle"] = float64(all.NS) / float64(all.Cycles)
	}
	return v
}

// simulatedStats sums the model's own statistics over one execution's
// cells. They depend only on the model and the seed, so they must stay
// identical on any change that leaves the model alone.
func simulatedStats(outs []*campaign.Outcome) map[string]float64 {
	v := map[string]float64{}
	var busy float64
	var busyN int
	add := func(res *paradet.Result) {
		v["ooo.cycles"] += float64(res.Cycles)
		v["ooo.instrs"] += float64(res.Instructions)
		v["ooo.mispredicts"] += float64(res.Mispredicts)
		v["core.entries_logged"] += float64(res.EntriesLogged)
		v["core.segments_checked"] += float64(res.SegmentsChecked)
		v["core.checkpoints"] += float64(res.Checkpoints)
		v["core.logfull_stall_cycles"] += float64(res.LogFullStallCycles)
		for _, u := range res.CheckerUtilization {
			busy += u
			busyN++
		}
	}
	for _, out := range outs {
		for i := range out.Results {
			r := &out.Results[i]
			if r.Res != nil {
				add(r.Res)
			}
			if r.FaultRec != nil {
				switch r.FaultRec.Outcome {
				case paradet.OutcomeDetected:
					v["fault.detected"]++
				case paradet.OutcomeMasked:
					v["fault.masked"]++
				case paradet.OutcomeOverDetected:
					v["fault.over_detected"]++
				case paradet.OutcomeSilent:
					v["fault.silent"]++
				}
			}
		}
	}
	if busyN > 0 {
		v["inorder.checker_busy_frac"] = busy / float64(busyN)
	}
	return v
}

// fidelity compares the Table I protected cells (the Fig. 7/8 cells)
// with the paper: the mean slowdown's distance from 1.0175 in
// percentage points, and the mean detection delay's relative error
// against 770 ns in percent.
func fidelity(outs []*campaign.Outcome) (slowdownErrPP, delayErrPct float64, ok bool) {
	var slow, delay float64
	n := 0
	for _, out := range outs {
		for i := range out.Results {
			r := &out.Results[i]
			if r.Fault != nil || r.Res == nil || !r.Res.Protected || r.Config.DisableCheckers || r.Point.Label != "tableI" {
				continue
			}
			slow += r.Slowdown
			delay += r.Res.Delay.MeanNS
			n++
		}
	}
	if n == 0 {
		return 0, 0, false
	}
	slow /= float64(n)
	delay /= float64(n)
	return abs(slow-paperFig7Slowdown) * 100, abs(delay-paperFig8DelayNS) / paperFig8DelayNS * 100, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// oracleTarget is one kernel sample to drive standalone, with the
// instruction count and output of the simulated run it must agree with.
type oracleTarget struct {
	Kernel string
	Sample uint64
	Instrs uint64
	Output []uint64
}

// unprotectedTargets picks, per kernel, the unprotected run of an
// execution: the oracle alone must retire exactly its instructions
// and produce exactly its output.
func unprotectedTargets(outs []*campaign.Outcome) []oracleTarget {
	var ts []oracleTarget
	seen := map[string]bool{}
	for _, out := range outs {
		for i := range out.Results {
			r := &out.Results[i]
			base := r.Baseline
			if r.Scheme == campaign.SchemeUnprotected {
				base = r.Res
			}
			if base == nil || seen[r.Workload] {
				continue
			}
			seen[r.Workload] = true
			ts = append(ts, oracleTarget{Kernel: r.Workload, Sample: r.Config.MaxInstrs,
				Instrs: base.Instructions, Output: slices.Clone(base.Output)})
		}
	}
	return ts
}

// driveOracle runs the functional oracle (trace.Oracle.Next) alone over
// each target's sample, then replays the loads and stores it produced
// through a standalone Table I L1D→L2→DRAM hierarchy. It returns host
// ns per retired instruction and per memory access, and a failure for
// every target the oracle disagrees with.
func driveOracle(ts []oracleTarget) (nsPerInstr, nsPerAccess float64, failures []string) {
	var oracleNS, instrs, accessNS, accesses int64
	for _, t := range ts {
		_, src, err := workloads.Get(t.Kernel)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		prog, err := asm.Assemble(src)
		if err != nil {
			failures = append(failures, fmt.Sprintf("assemble %s: %v", t.Kernel, err))
			continue
		}
		o := trace.NewOracle(prog, mem.NewSparse(), t.Sample)
		var di isa.DynInst
		start := time.Now()
		n := int64(0)
		for o.Next(&di) {
			n++
		}
		oracleNS += time.Since(start).Nanoseconds()
		instrs += n
		if uint64(n) != t.Instrs || !slices.Equal(o.Env.Output, t.Output) {
			failures = append(failures, fmt.Sprintf("oracle on %s/%d retired %d instructions (simulated %d) or its output differs",
				t.Kernel, t.Sample, n, t.Instrs))
		}

		// A second, untimed pass collects the addresses, so the timed
		// pass above pays for nothing but the oracle.
		var addrs []memRef
		o = trace.NewOracle(prog, mem.NewSparse(), t.Sample)
		for o.Next(&di) {
			for j := uint8(0); j < di.NMem; j++ {
				addrs = append(addrs, memRef{di.Mem[j].Addr, di.Mem[j].IsStore, di.PC})
			}
		}

		clk := sim.NewClock(paradet.DefaultConfig().MainCoreHz)
		l2 := mem.NewCache(mem.CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 16, LineBytes: 64,
			HitLat: clk.Duration(12), MSHRs: 16, Prefetch: true}, mem.NewDDR3())
		l1d := mem.NewCache(mem.CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 2, LineBytes: 64,
			HitLat: clk.Duration(2), MSHRs: 6}, l2)
		start = time.Now()
		now := sim.Time(0)
		for _, a := range addrs {
			now = l1d.Access(a.addr, a.store, a.pc, now)
		}
		accessNS += time.Since(start).Nanoseconds()
		accesses += int64(len(addrs))
	}
	if instrs > 0 {
		nsPerInstr = float64(oracleNS) / float64(instrs)
	}
	if accesses > 0 {
		nsPerAccess = float64(accessNS) / float64(accesses)
	}
	return nsPerInstr, nsPerAccess, failures
}

type memRef struct {
	addr  uint64
	store bool
	pc    uint64
}

// driveExpand times campaign.Expand over every figure's grid at the
// figures' default samples, as the serving layer's identity and grid
// routes call it, and returns the median milliseconds per grid.
func driveExpand(ctx context.Context) (float64, error) {
	var times []float64
	for _, name := range experiments.Names() {
		spec, err := experiments.SpecNamed(name, experiments.Options{})
		if err != nil {
			continue // analytic figures have no grid
		}
		start := time.Now()
		if _, err := campaign.Expand(ctx, spec, campaign.Default()); err != nil {
			return 0, fmt.Errorf("expand %s: %w", name, err)
		}
		times = append(times, ms(time.Since(start)))
	}
	return median(times), nil
}

// storedCell is one cell as the store holds it.
type storedCell struct {
	Key  resultstore.Key
	Cell resultstore.Cell
}

// cellsOf lists an execution's cells with their store keys, decoded
// from their JSON form as the store would hold them (which also drops
// the final memory images the in-process results keep alive).
func cellsOf(outs []*campaign.Outcome) ([]storedCell, error) {
	var cs []storedCell
	for _, out := range outs {
		for i := range out.Results {
			r := &out.Results[i]
			if r.Err != nil {
				continue
			}
			data, err := json.Marshal(resultstore.Cell{Result: r.Res, Baseline: r.Aux, FaultRecord: r.FaultRec})
			if err != nil {
				return nil, err
			}
			sc := storedCell{Key: campaign.CellKey(r)}
			if err := json.Unmarshal(data, &sc.Cell); err != nil {
				return nil, err
			}
			cs = append(cs, sc)
		}
	}
	return cs, nil
}

// replayStore writes cells into a fresh store under dir through the
// public API, reads each back from the loose tree, compacts, and reads
// each back from the segment. It returns the median Put and Get
// latencies in µs, the compaction time in ms, and the compacted store,
// which the caller removes with dir.
func replayStore(dir string, cells []storedCell) (v map[string]float64, st *resultstore.Store, failures []string, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, nil, err
	}
	if st, err = resultstore.Open(dir); err != nil {
		return nil, nil, nil, err
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var puts, loose, seg []float64
	for i := range cells {
		c := cells[i].Cell
		start := time.Now()
		if err := st.Put(cells[i].Key, &c); err != nil {
			return nil, nil, nil, fmt.Errorf("put: %w", err)
		}
		puts = append(puts, us(time.Since(start)))
	}
	get := func(into *[]float64, layout string) {
		for i := range cells {
			start := time.Now()
			_, ok := st.Get(cells[i].Key)
			*into = append(*into, us(time.Since(start)))
			if !ok {
				failures = append(failures, fmt.Sprintf("store replay: %s read of %s missed", layout, cells[i].Key.Fingerprint()))
			}
		}
	}
	get(&loose, "loose")
	start := time.Now()
	if _, err := st.Compact(resultstore.CompactOptions{}); err != nil {
		return nil, nil, nil, fmt.Errorf("compact: %w", err)
	}
	compact := ms(time.Since(start))
	get(&seg, "segment")
	return map[string]float64{
		"resultstore.put_us":         median(puts),
		"resultstore.get_loose_us":   median(loose),
		"resultstore.compact_ms":     compact,
		"resultstore.get_segment_us": median(seg),
	}, st, failures, nil
}
