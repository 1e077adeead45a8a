package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"paradet"
	"paradet/internal/campaign"
	"paradet/internal/experiments"
	"paradet/internal/resultstore"
)

// Paper figures the fidelity metrics compare against (Ainsworth & Jones,
// DSN 2018, Figs. 7 and 8).
const (
	paperFig7Slowdown = 1.0175
	paperFig8DelayNS  = 770.0
)

// warmPasses is how many times each repetition re-executes its
// campaigns against the store it just wrote. Each pass reads every cell
// back through the engine, which is what a repeated `experiments
// -store` run or a pdserve figure fetch does. Reads cost well under a
// millisecond, so a hundred passes take a fraction of a second, and
// with over five thousand reads a repetition, its p99 rests on more
// than fifty reads beyond it rather than on the handful a GC cycle
// happened to stall.
const warmPasses = 100

// sweepPlan is the seed's choice for sweep_cold: the order the kernels
// run in and each kernel's committed-instruction sample, drawn within
// ±10% of its DefaultMaxInstrs. All six cells of a kernel share its
// sample, so they share one memoised unprotected baseline.
type sweepPlan struct {
	Order   []string
	Samples map[string]uint64
}

func planSweep(seed int64) sweepPlan {
	var all []string
	for _, w := range paradet.Workloads() {
		all = append(all, w.Name)
	}
	return drawSamples(rand.New(rand.NewSource(seed)), all, 0.10)
}

// drawSamples shuffles kernels and draws each one's sample within
// ±spread of its DefaultMaxInstrs.
func drawSamples(r *rand.Rand, kernels []string, spread float64) sweepPlan {
	defaults := map[string]uint64{}
	for _, w := range paradet.Workloads() {
		defaults[w.Name] = w.DefaultMaxInstrs
	}
	p := sweepPlan{Samples: map[string]uint64{}}
	for _, i := range r.Perm(len(kernels)) {
		w := kernels[i]
		p.Order = append(p.Order, w)
		p.Samples[w] = uint64(float64(defaults[w]) * (1 - spread + 2*spread*r.Float64()))
	}
	return p
}

// sweepSpecs shapes sweep_cold like Figs. 7 and 10: per kernel, the
// Table I protected cell, its unprotected baseline as a cell of its
// own, and the checkpoint-only (DisableCheckers) cells at Fig. 10's
// four log/timeout points, all with baselines. One spec per kernel,
// because a spec's sample override is shared by all its workloads.
func sweepSpecs(p sweepPlan, parallel int) []campaign.Spec {
	specs := make([]campaign.Spec, 0, len(p.Order))
	for _, w := range p.Order {
		n := p.Samples[w]
		cfg := paradet.DefaultConfig()
		cfg.MaxInstrs = n
		pts := []campaign.Point{
			{Label: "tableI", Config: cfg},
			{Label: "tableI", Config: cfg, Scheme: campaign.SchemeUnprotected},
		}
		for _, lc := range experiments.LogConfigs[:4] {
			c := cfg
			c.LogBytes, c.TimeoutInstrs, c.DisableCheckers = lc.LogBytes, lc.Timeout, true
			pts = append(pts, campaign.Point{Label: lc.Label, Config: c})
		}
		specs = append(specs, campaign.Spec{Name: "sweep_cold/" + w, Workloads: []string{w},
			Points: pts, WithBaseline: true, Parallel: parallel})
	}
	return specs
}

// faultPlan is the seed's choice for fault_grid: kernel order, each
// kernel's sample within ±1% of its DefaultMaxInstrs, strike points and
// flipped bits. Strikes fall inside the shorter sample, so every one
// lands in the simulated stream. The samples vary only so that the
// fault-free cells' fidelity errors differ between seeds; with two
// kernels instead of nine, the sweep's ±10% would move their mean by
// more than the fidelity bound.
type faultPlan struct {
	sweepPlan
	Seqs []uint64
	Bits []uint8
}

var faultKernels = []string{"bitcount", "stream"}

// faultSeqs is how many strike points the seed draws. A faulty run's
// length depends on where it strikes, so the grid's cost varies with the
// seed; four points rather than faultcov's two halve that variance's
// share of cells_per_s and write_p50_ms.
const faultSeqs = 4

func planFaults(seed int64) faultPlan {
	r := rand.New(rand.NewSource(seed))
	p := faultPlan{sweepPlan: drawSamples(r, faultKernels, 0.01)}
	limit := uint64(math.MaxUint64)
	for _, n := range p.Samples {
		limit = min(limit, n)
	}
	for len(p.Seqs) < faultSeqs {
		if s := 1 + uint64(r.Int63n(int64(limit-1))); !slices.Contains(p.Seqs, s) {
			p.Seqs = append(p.Seqs, s)
		}
	}
	for len(p.Bits) < 2 {
		b := uint8(r.Intn(64))
		if len(p.Bits) == 0 || p.Bits[0] != b {
			p.Bits = append(p.Bits, b)
		}
	}
	return p
}

// faultSpecs is, per kernel, a faultcov-shaped campaign over every
// FaultTarget, then the kernel's fault-free protected cell with its
// baseline (Fig. 7-shaped), whose golden run the fault grid already
// stored.
func faultSpecs(p faultPlan, parallel int) []campaign.Spec {
	var specs []campaign.Spec
	for _, w := range p.Order {
		cfg := paradet.DefaultConfig()
		cfg.MaxInstrs = p.Samples[w]
		tableI := []campaign.Point{{Label: "tableI", Config: cfg}}
		specs = append(specs,
			campaign.Spec{Name: "fault_grid/" + w, Workloads: []string{w}, Points: tableI, Parallel: parallel,
				Faults: &campaign.FaultGrid{Targets: paradet.FaultTargets(), Seqs: p.Seqs, Bits: p.Bits}},
			campaign.Spec{Name: "fault_grid/" + w + "/fault-free", Workloads: []string{w}, Points: tableI,
				WithBaseline: true, Parallel: parallel})
	}
	return specs
}

// cellRef names one cell of a repetition's campaigns.
type cellRef struct {
	Spec  int
	Index int
}

// repResult is one cold execution of a workload's campaigns followed by
// warmPasses warm re-executions. Only the first repetition keeps what
// later stages read from its cells (Digests, Targets, Stored); the others
// keep scalars and their read latencies, so the memory a run holds does
// not grow with the number of repetitions that fit in it.
type repResult struct {
	Wall     time.Duration
	Cells    int
	Sims     map[string]simTotals
	Stats    campaign.Stats
	WritesMS []float64
	ReadsMS  []float64
	Attempts int
	Failures []string
	Digests  map[cellRef]string
	Alloc    uint64
	Cal      calTotals // calibration slices of the cold phase

	// What later stages need from the cells, kept instead of the
	// outcomes: a simulated Result holds its final memory image.
	Fig7ErrPP, Fig8ErrPct float64
	HasFidelity           bool
	SimStats              map[string]float64
	Targets               []oracleTarget
	Stored                []storedCell
}

// cellDigest fingerprints a cell's simulated statistics. The simulator
// is deterministic, so it must repeat exactly across repetitions,
// processes and tracing modes.
func cellDigest(r *campaign.Run) string {
	data, err := json.Marshal(struct {
		Res      *paradet.Result
		Aux      *paradet.BaselineResult
		FaultRec *paradet.FaultRecord
		Slowdown float64
	}{r.Res, r.Aux, r.FaultRec, r.Slowdown})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// inSphereSilent reports a fault cell whose fault escaped detection
// inside the sphere of replication. Only pre-LFU load faults, which sit
// in the ECC domain, may be silent (§VI-E).
func inSphereSilent(r *campaign.Run) bool {
	return r.FaultRec != nil && r.FaultRec.Outcome == paradet.OutcomeSilent &&
		r.FaultRec.Fault.Target != paradet.FaultLoadPreLFU
}

// runCampaigns executes specs cold against a fresh store under dir, then
// re-reads them warm. tr, when set, receives a span per repetition and
// per cell; the simulator's call spans hang off the repetition span.
// want, when set, holds the first repetition's digests: every cell must
// match them, and the repetition keeps no digests or cells of its own.
func runCampaigns(ctx context.Context, specs []campaign.Spec, sim *timedSim, tr *tracer, dir string, rep int, want map[cellRef]string) (*repResult, error) {
	storeDir := filepath.Join(dir, fmt.Sprintf("store-%d", rep))
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	store, err := resultstore.Open(storeDir)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	defer os.RemoveAll(storeDir)

	res := &repResult{Digests: map[cellRef]string{}}
	var outs []*campaign.Outcome
	sim.take()
	cellSpans := func(spec string, parent int) campaign.ProgressFunc {
		return func(p campaign.Progress) {
			end := time.Now()
			tr.add("campaign.cell", end.Add(-p.Elapsed), end, parent,
				fmt.Sprintf("%s#%d %s/%s[%s]", spec, p.Cell, p.Workload, p.Label, p.Scheme))
			if p.Cached {
				res.ReadsMS = append(res.ReadsMS, ms(p.Elapsed))
			} else {
				res.WritesMS = append(res.WritesMS, ms(p.Elapsed))
			}
		}
	}

	repSpan := tr.begin("campaign.sweep", -1, fmt.Sprintf("rep %d cold", rep))
	sim.setParent(repSpan)
	allocBefore := totalAlloc()
	start := time.Now()
	for _, spec := range specs {
		specSpan := tr.begin("campaign.spec", repSpan, spec.Name)
		sim.setParent(specSpan)
		out, err := campaign.ExecuteContext(ctx, spec, sim, campaign.Options{Store: store, Progress: cellSpans(spec.Name, specSpan)})
		tr.finish(specSpan)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		outs = append(outs, out)
	}
	res.Wall = time.Since(start)
	res.Alloc = totalAlloc() - allocBefore
	tr.finish(repSpan)
	res.Sims, res.Cal = sim.take()
	res.Fig7ErrPP, res.Fig8ErrPct, res.HasFidelity = fidelity(outs)
	res.SimStats = simulatedStats(outs)
	if want == nil {
		res.Targets = unprotectedTargets(outs)
		if res.Stored, err = cellsOf(outs); err != nil {
			return nil, err
		}
	}
	for si, out := range outs {
		res.Stats.Add(out.Stats)
		for i := range out.Results {
			r := &out.Results[i]
			res.Cells++
			res.Attempts++
			switch {
			case r.Err != nil:
				res.Failures = append(res.Failures, fmt.Sprintf("%s cell %d: %v", out.Spec.Name, i, r.Err))
				continue
			case r.Fault == nil && r.Res != nil && r.Res.Protected && (r.Res.FirstError != nil || len(r.Res.AllErrors) > 0):
				res.Failures = append(res.Failures, fmt.Sprintf("%s cell %d: fault-free protected run reported an error", out.Spec.Name, i))
			case inSphereSilent(r):
				res.Failures = append(res.Failures, fmt.Sprintf("%s cell %d: in-sphere fault %v went silent", out.Spec.Name, i, r.FaultRec.Fault))
			}
			res.Digests[cellRef{si, i}] = cellDigest(r)
		}
	}

	warmSpan := tr.begin("campaign.warm_reads", -1, fmt.Sprintf("rep %d warm", rep))
	for pass := 0; pass < warmPasses; pass++ {
		for si, spec := range specs {
			out, err := campaign.ExecuteContext(ctx, spec, sim, campaign.Options{Store: store, Progress: cellSpans(spec.Name, warmSpan)})
			if err != nil {
				return nil, fmt.Errorf("%s warm: %w", spec.Name, err)
			}
			if n := out.Stats.CellSims + out.Stats.BaselineSims; n != 0 {
				res.Failures = append(res.Failures, fmt.Sprintf("%s warm pass simulated %d times", spec.Name, n))
			}
			for i := range out.Results {
				r := &out.Results[i]
				res.Attempts++
				if r.Err != nil || !r.Cached || cellDigest(r) != res.Digests[cellRef{si, i}] {
					res.Failures = append(res.Failures, fmt.Sprintf("%s cell %d: warm read differs from the cold result", spec.Name, i))
				}
			}
		}
	}
	tr.finish(warmSpan)
	sim.take()
	if want != nil {
		if !maps.Equal(res.Digests, want) {
			res.Failures = append(res.Failures, fmt.Sprintf("repetition %d simulated different statistics than repetition 0", rep))
		}
		res.Digests = nil
	}
	return res, nil
}

// scaled returns xs multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// setupBatch is how long a campaign workload repeats its set-up before
// each repetition. One set-up takes well under a millisecond, so one
// timing can be mostly a collection or a descheduling that happened to
// land in it; setup_s is the median of every set-up's time over the run,
// each batch scaled like the repetition it precedes, so such outliers
// fall in the tail and batches spread over the run see the same host as
// the repetitions.
const setupBatch = 150 * time.Millisecond

func runSweepCold(ctx context.Context, o options) (*outcome, error) {
	return runCampaignWorkload(ctx, o, func() []campaign.Spec {
		return sweepSpecs(planSweep(o.Seed), runtime.NumCPU())
	})
}

func runFaultGrid(ctx context.Context, o options) (*outcome, error) {
	return runCampaignWorkload(ctx, o, func() []campaign.Spec {
		return faultSpecs(planFaults(o.Seed), runtime.NumCPU())
	})
}

// timeSetup repeats fn until budget has passed (at least once), running
// a calibration slice before each call. It returns each call's seconds,
// unscaled, and the batch's slices.
func timeSetup(budget time.Duration, fn func() error) ([]float64, calTotals, error) {
	var secs []float64
	var cal calTotals
	begin := time.Now()
	for len(secs) == 0 || time.Since(begin) < budget {
		cal.NS += calSlice()
		cal.N++
		start := time.Now()
		if err := fn(); err != nil {
			return nil, cal, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, cal, nil
}

// runCampaignWorkload repeats cold-then-warm executions of the
// workload's campaigns for o.Seconds (at least two repetitions), each
// after a batch of set-ups. Set-up is drawing the plan, assembling the
// kernels and expanding every grid. Host times are scaled to the
// reference host speed by each repetition's calibration slices
// (calib.go). A traced run alternates untraced and traced repetitions,
// so the tracing overhead is measured inside the run.
func runCampaignWorkload(ctx context.Context, o options, plan func() []campaign.Spec) (*outcome, error) {
	var specs []campaign.Spec
	var rawSetups, setups []float64
	setUp := func() error {
		specs = plan()
		for _, s := range specs {
			if _, err := campaign.Expand(ctx, s, campaign.Default()); err != nil {
				return err
			}
		}
		return nil
	}

	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	plain, traced := newTimedSim(nil), newTimedSim(tr)
	var reps, tracedReps, plainReps []*repResult
	start := time.Now()
	// A repetition starts only if, at the mean pace so far, it will end
	// within o.Seconds, so a run's length does not overshoot by up to a
	// repetition.
	for rep := 0; rep < 2 || time.Since(start).Seconds()*float64(rep+1)/float64(rep) <= o.Seconds; rep++ {
		// Every set-up batch and repetition starts from a collected heap,
		// so none pays for the garbage of the one before it.
		runtime.GC()
		secs, cal, err := timeSetup(setupBatch, setUp)
		if err != nil {
			return nil, err
		}
		rawSetups = append(rawSetups, secs...)
		setups = append(setups, scaled(secs, cal.scale())...)
		s, t := plain, (*tracer)(nil)
		if o.Trace && rep%2 == 1 {
			s, t = traced, tr
		}
		runtime.GC()
		var want map[cellRef]string
		if rep > 0 {
			want = reps[0].Digests
		}
		r, err := runCampaigns(ctx, specs, s, t, o.Workdir, rep, want)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		if t != nil {
			tracedReps = append(tracedReps, r)
		} else {
			plainReps = append(plainReps, r)
		}
	}

	// Every host time of repetition i is scaled by the calibration slices
	// of its cold phase.
	scales := make([]float64, len(reps))
	var sliceNS []float64
	for i, r := range reps {
		scales[i] = r.Cal.scale()
		sliceNS = append(sliceNS, float64(r.Cal.NS)/float64(max(r.Cal.N, 1)))
	}
	out := &outcome{Values: map[string]float64{"setup_s": median(setups)}}
	first := reps[0]
	for _, r := range reps {
		out.Attempted += r.Attempts
		out.Failures = append(out.Failures, r.Failures...)
	}
	out.Notes = append(out.Notes, fmt.Sprintf("repetitions=%d cells/rep=%d", len(reps), first.Cells))

	var cellsPerS, rawCellsPerS, minstr, rawMinstr, writes []float64
	var reads [][]float64
	for i, r := range reps {
		rate := float64(r.Cells) / r.Wall.Seconds()
		rawCellsPerS = append(rawCellsPerS, rate)
		cellsPerS = append(cellsPerS, rate/scales[i])
		if t := instrTotals(r.Sims); t.NS > 0 {
			rawMinstr = append(rawMinstr, float64(t.Instrs)/(float64(t.NS)/1e9)/1e6)
			minstr = append(minstr, rawMinstr[len(rawMinstr)-1]/scales[i])
		}
		writes = append(writes, scaled(r.WritesMS, scales[i])...)
		reads = append(reads, scaled(r.ReadsMS, scales[i]))
	}
	out.Notes = append(out.Notes, fmt.Sprintf("calibration slice median=%.4fms (reference %.4fms); unscaled medians: setup_s=%.4g cells_per_s=%.4g sim_minstr_per_s=%.4g",
		median(sliceNS)/1e6, calRefNS/1e6, median(rawSetups), median(rawCellsPerS), median(rawMinstr)))
	v := out.Values
	v["cells_per_s"] = median(cellsPerS)
	v["sim_minstr_per_s"] = median(minstr)
	// A repetition's 50-odd cold cells cannot support p90, so writes are
	// pooled; its thousands of warm reads are a group each.
	putPercentiles(out, "write", [][]float64{writes}, 50, 90)
	putPercentiles(out, "read", reads, 50, 99)
	if first.HasFidelity {
		v["fig7_slowdown_err_pp"], v["fig8_delay_err_pct"] = first.Fig7ErrPP, first.Fig8ErrPct
	}
	if !o.Trace {
		return out, nil
	}
	return out, campaignLayers(ctx, o, out, tr, first, plainReps, tracedReps)
}

// putPercentiles stores <kind>_p<lo>_ms, an end-to-end metric, and the
// per-layer bench.<kind>_p<hi>_ms as the median over groups of each
// group's percentile, so a slow spell of the
// host that covers a minority of the run's groups does not move the
// figure. It fails the run when a group cannot support the tail
// percentile.
func putPercentiles(out *outcome, kind string, groups [][]float64, lo, hi float64) {
	var los, his []float64
	n := 0
	for _, xs := range groups {
		if !supports(len(xs), hi) {
			out.fail("%d %s samples cannot support p%g (need %d beyond it)", len(xs), kind, hi, minBeyond)
		}
		n += len(xs)
		los = append(los, percentile(xs, lo))
		his = append(his, percentile(xs, hi))
	}
	out.Notes = append(out.Notes, fmt.Sprintf("%s samples=%d in %d groups", kind, n, len(groups)))
	out.Values[fmt.Sprintf("%s_p%g_ms", kind, lo)] = median(los)
	out.Values[fmt.Sprintf("bench.%s_p%g_ms", kind, hi)] = median(his)
}

// campaignLayers fills the per-layer metrics of a campaign workload
// from its traced repetitions and the standalone drives.
func campaignLayers(ctx context.Context, o options, out *outcome, tr *tracer, first *repResult, plainReps, tracedReps []*repResult) error {
	v := out.Values
	spans := tr.snapshot()
	kinds := map[string]simTotals{}
	var busy, straggle, allocs, tracedWall, plainWall []float64
	workers := float64(runtime.NumCPU())
	for _, r := range tracedReps {
		for k, t := range r.Sims {
			a := kinds[k]
			a.add(t)
			kinds[k] = a
		}
		busy = append(busy, float64(sumTotals(r.Sims).NS)/(r.Wall.Seconds()*1e9*workers))
		tracedWall = append(tracedWall, r.Wall.Seconds())
		// Faulty runs allocate for instructions no call reports, so the
		// ratio is taken only over repetitions without them.
		if in := instrTotals(r.Sims).Instrs; in > 0 && r.Sims[kindFault].Calls == 0 {
			allocs = append(allocs, float64(r.Alloc)/float64(in))
		}
	}
	for _, r := range plainReps {
		plainWall = append(plainWall, r.Wall.Seconds())
	}
	for i, sp := range spans {
		if sp.Name == "campaign.spec" {
			straggle = append(straggle, float64(stragglerNS(childCalls(spans, i), runtime.NumCPU(), sp.End))/1e9)
		}
	}
	v["campaign.busy_frac"] = median(busy)
	v["campaign.straggler_s"] = sumFloats(straggle) / float64(len(tracedReps))
	v["campaign.sims"] = float64(first.Stats.CellSims + first.Stats.BaselineSims)
	v["paradet.alloc_bytes_per_instr"] = median(allocs)
	overhead := (median(tracedWall)/median(plainWall) - 1) * 100
	v["bench.trace_overhead_pct"] = overhead
	for k, x := range first.SimStats {
		v[k] = x
	}

	oracleNS, accessNS, fails := driveOracle(first.Targets)
	out.Failures = append(out.Failures, fails...)
	v["isa.oracle_ns_per_instr"], v["mem.access_ns"] = oracleNS, accessNS
	for k, x := range deriveLayers(kinds, oracleNS) {
		v[k] = x
	}
	expand, err := driveExpand(ctx)
	if err != nil {
		return err
	}
	v["campaign.expand_ms"] = expand
	replay := filepath.Join(o.Workdir, "replay")
	defer os.RemoveAll(replay)
	st, store, fails, err := replayStore(replay, first.Stored)
	if err != nil {
		return err
	}
	out.Failures = append(out.Failures, fails...)
	for k, x := range st {
		v[k] = x
	}
	var fps []string
	for _, c := range first.Stored {
		fps = append(fps, c.Key.Fingerprint())
	}
	sv, fails, err := driveServe(ctx, store, fps)
	if err != nil {
		return err
	}
	out.Failures = append(out.Failures, fails...)
	for k, x := range sv {
		v[k] = x
	}
	out.Notes = append(out.Notes, fmt.Sprintf("trace_overhead_pct=%.2f", overhead))
	return tr.write(spanPath(o), runContext(o, overhead))
}

// childCalls returns the simulator-call spans parented on spans[parent].
func childCalls(spans []span, parent int) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == parent && strings.HasPrefix(s.Name, "paradet.") {
			out = append(out, s)
		}
	}
	return out
}

func sumFloats(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
