package paradet

import (
	"testing"

	detect "paradet/internal/core"
	"paradet/internal/isa"
	"paradet/internal/mem"
	"paradet/internal/sim"
	"paradet/internal/trace"
)

// TestFaultTargetsMatchesRegistry keeps the hand-maintained
// FaultTargets list in lockstep with targetByName: a new injection
// path must appear in both, or "all"-target campaigns would silently
// skip it.
func TestFaultTargetsMatchesRegistry(t *testing.T) {
	listed := FaultTargets()
	if len(listed) != len(targetByName) {
		t.Fatalf("FaultTargets lists %d targets, registry has %d", len(listed), len(targetByName))
	}
	seen := map[FaultTarget]bool{}
	for _, ft := range listed {
		if !ft.Valid() {
			t.Errorf("FaultTargets lists unknown target %q", ft)
		}
		if seen[ft] {
			t.Errorf("FaultTargets lists %q twice", ft)
		}
		seen[ft] = true
	}
}

// faultConfig bounds runs: injected faults can corrupt loop counters and
// make the program run forever, which the instruction budget must cap.
func faultConfig() Config {
	cfg := smallConfig()
	cfg.MaxInstrs = 60_000
	return cfg
}

// faultKernel computes a chain where nearly every value feeds stores, so
// single-bit corruption is architecturally visible.

const faultKernel = `
	.equ N, 120
_start:
	la   x1, buf
	movz x2, 1          ; i
	movz x3, 7          ; acc
loop:
	mul  x3, x3, x2
	addi x3, x3, 13
	xor  x3, x3, x2
	strd x3, [x1]
	addi x1, x1, 8
	addi x2, x2, 1
	slti x4, x2, N
	bne  x4, xzr, loop
	mov  x0, x3
	svc
	hlt
	.align 8
buf: .space 1024
`

func TestStoreValueFaultDetected(t *testing.T) {
	p := MustAssemble(faultKernel)
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultStoreValue, Seq: 40, Bit: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("store-value fault escaped detection")
	}
	if res.FirstError.Kind != "store-value" {
		t.Errorf("detected as %q, want store-value", res.FirstError.Kind)
	}
	if !res.FirstError.Confirmed {
		t.Error("first error must be confirmed by strong induction")
	}
}

func TestStoreAddrFaultDetected(t *testing.T) {
	p := MustAssemble(faultKernel)
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultStoreAddr, Seq: 40, Bit: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("store-addr fault escaped detection")
	}
	if res.FirstError.Kind != "store-addr" {
		t.Errorf("detected as %q, want store-addr", res.FirstError.Kind)
	}
}

func TestDestRegFaultDetected(t *testing.T) {
	p := MustAssemble(faultKernel)
	// Seq 9 is inside the loop body; the corrupted accumulator feeds the
	// next store.
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultDestReg, Seq: 9, Bit: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("computation fault escaped detection")
	}
}

func TestLoadPostLFUFaultDetected(t *testing.T) {
	p := MustAssemble(sumLoop) // has a load-dominated reduction loop
	// Find a load: the reduction loop's ldrd runs every 6 instructions
	// after ~1000; strike several candidate seqs and require detection
	// whenever the strike actually hit a load.
	hit := false
	for seq := uint64(1010); seq < 1030; seq++ {
		res, err := RunWithFaults(faultConfig(), p, []Fault{
			{Target: FaultLoadPostLFU, Seq: seq, Bit: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstError != nil {
			hit = true
			break
		}
	}
	if !hit {
		t.Fatal("no post-LFU load fault detected across the strike window")
	}
}

func TestLoadPreLFUFaultIsOutsideSphere(t *testing.T) {
	// Pre-duplication corruption lands in the ECC domain: both the main
	// core and the log see the same wrong value, so the scheme must NOT
	// flag it — and memory is corrupted. This is the paper's motivation
	// for duplicating loads early (§IV-C).
	p := MustAssemble(sumLoop)
	golden, err := RunUnprotected(faultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	var silent bool
	for seq := uint64(1010); seq < 1030; seq++ {
		rec, err := ClassifyFault(faultConfig(), p, Fault{
			Target: FaultLoadPreLFU, Seq: seq, Bit: 2,
		}, golden)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Outcome == OutcomeSilent {
			silent = true
			break
		}
		if rec.Outcome == OutcomeDetected || rec.Outcome == OutcomeOverDetected {
			t.Fatalf("pre-LFU fault impossibly detected: %+v", rec)
		}
	}
	if !silent {
		t.Fatal("expected at least one silent corruption from pre-LFU strikes")
	}
}

func TestControlFaultDetected(t *testing.T) {
	p := MustAssemble(faultKernel)
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultControl, Seq: 25, Bit: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("control-flow fault escaped detection")
	}
}

func TestHardFaultDetected(t *testing.T) {
	p := MustAssemble(faultKernel)
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultDestReg, Seq: 30, Bit: 1, Sticky: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("hard (stuck-at) fault escaped detection")
	}
}

func TestCheckerFaultIsOverDetection(t *testing.T) {
	p := MustAssemble(faultKernel)
	golden, err := RunUnprotected(faultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ClassifyFault(faultConfig(), p, Fault{
		Target: FaultCheckerReg, Seq: 10, Bit: 9, CheckerID: 0,
	}, golden)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != OutcomeOverDetected {
		t.Fatalf("checker-internal fault classified %q, want over-detected", rec.Outcome)
	}
}

func TestFirstErrorOrderingUnderMultipleFaults(t *testing.T) {
	p := MustAssemble(faultKernel)
	res, err := RunWithFaults(faultConfig(), p, []Fault{
		{Target: FaultStoreValue, Seq: 700, Bit: 3},
		{Target: FaultStoreValue, Seq: 40, Bit: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError == nil {
		t.Fatal("no error detected")
	}
	// The confirmed first error must be the earlier fault's segment.
	for _, e := range res.AllErrors {
		if e.SegmentSeq < res.FirstError.SegmentSeq {
			t.Fatalf("confirmed error in segment %d but an earlier segment %d also failed",
				res.FirstError.SegmentSeq, e.SegmentSeq)
		}
	}
	if res.FirstError.InstSeq > 60 {
		t.Errorf("first error at inst %d, expected near seq 40", res.FirstError.InstSeq)
	}
}

func TestCampaignCoverageIsTotalInsideSphere(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	p := MustAssemble(faultKernel)
	cfg := faultConfig()
	camp, err := RunCampaign(cfg, p, 40, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if n := camp.Counts[OutcomeSilent]; n != 0 {
		for _, r := range camp.Records {
			if r.Outcome == OutcomeSilent {
				t.Errorf("silent corruption: %+v", r.Fault)
			}
		}
		t.Fatalf("%d silent corruptions inside the detection sphere", n)
	}
	if camp.Counts[OutcomeDetected] == 0 {
		t.Fatal("campaign detected nothing; fault sites likely broken")
	}
	if camp.Coverage() != 1.0 {
		t.Fatalf("coverage = %v, want 1.0", camp.Coverage())
	}
}

func TestCampaignIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	p := MustAssemble(faultKernel)
	a, err := RunCampaign(faultConfig(), p, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(faultConfig(), p, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
}

// refReplica is a reference for the detector's commit-time register
// replica: a second functional machine with its own copy of memory,
// RDTIME values taken from the load-store log and the main-core fault
// hook, stepped once per committed instruction. Re-executing the
// committed stream this way is what the replica's replay of the
// oracle's destination values must reproduce.
type refReplica struct {
	m      isa.Machine
	mem    *mem.Sparse
	nonDet []uint64
}

func newRefReplica(p *isa.Program, hook func(*isa.Machine, *isa.DynInst)) *refReplica {
	r := &refReplica{mem: mem.NewSparse()}
	r.mem.SetBytes(p.Origin, p.Image)
	r.m.Prog, r.m.Env, r.m.Hooks.PostExec = p, r, hook
	r.m.Restore(trace.InitialRegs(p))
	return r
}

func (r *refReplica) Load(addr uint64, size uint8) uint64       { return r.mem.Read(addr, size) }
func (r *refReplica) Store(addr uint64, size uint8, val uint64) { r.mem.Write(addr, size, val) }
func (r *refReplica) Syscall(*isa.Machine)                      {}
func (r *refReplica) ReadTime() uint64 {
	v := r.nonDet[0]
	r.nonDet = r.nonDet[1:]
	return v
}

// sealComparer wraps a checker core: at every seal it steps the
// reference up to the segment's last instruction and compares the
// register checkpoint against it before the check starts.
type sealComparer struct {
	detect.Checker
	t     *testing.T
	ref   *refReplica
	seals *[]isa.ArchRegs
}

func (c *sealComparer) StartCheck(seg *detect.Segment, at sim.Time) {
	for _, e := range seg.Entries {
		if e.Kind == detect.EntryNonDet {
			c.ref.nonDet = append(c.ref.nonDet, e.Val)
		}
	}
	var di isa.DynInst
	for end := seg.StartSeq + seg.InstCount - 1; c.ref.m.InstCount < end; {
		if err := c.ref.m.Step(&di); err != nil {
			c.t.Fatalf("reference replica: %v", err)
		}
	}
	if d := seg.EndRegs.Diff(c.ref.m.Snapshot()); d != "" {
		c.t.Errorf("segment %d (instructions %d..%d): checkpoint differs from re-execution: %s",
			seg.SeqNo, seg.StartSeq, seg.StartSeq+seg.InstCount-1, d)
	}
	*c.seals = append(*c.seals, seg.EndRegs)
	c.Checker.StartCheck(seg, at)
}

// replaySeals runs p protected with faults and checks every register
// checkpoint against the reference replica, returning the checkpoints.
func replaySeals(t *testing.T, cfg Config, p *Program, faults []Fault) []isa.ArchRegs {
	t.Helper()
	fp, err := planFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystemBuilder(cfg, p).withPlan(fp).Build()
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefReplica(p.prog, fp.main)
	var seals []isa.ArchRegs
	pool := make([]detect.Checker, len(s.checkers))
	for i, ck := range s.checkers {
		pool[i] = &sealComparer{Checker: ck, t: t, ref: ref, seals: &seals}
	}
	s.det.AttachCheckers(pool)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return seals
}

// strikeSeq returns the first dynamic instruction from seq on, within a
// thousand, that the target can corrupt (a load, a store, or any
// register write), so every fault in the replay test changes something.
func strikeSeq(t *testing.T, p *Program, target FaultTarget, seq uint64) uint64 {
	t.Helper()
	o := trace.NewOracle(p.prog, mem.NewSparse(), seq+1000)
	var di isa.DynInst
	for o.Next(&di) {
		op := di.Inst.Op
		hits := len(di.Operands.Dsts()) > 0
		switch target {
		case FaultLoadPostLFU, FaultLoadPreLFU:
			hits = op.IsLoad()
		case FaultStoreValue, FaultStoreAddr:
			hits = op.IsStore()
		case FaultControl:
			hits = true
		}
		if di.Seq >= seq && hits {
			return di.Seq
		}
	}
	t.Fatalf("%s: no instruction from %d on to strike", target, seq)
	return 0
}

// pairKernel keeps the second register of a pair load live until the
// next pair load, over data that is never zero after the first pass, so
// a checkpoint shows whether both of LDP's destinations were replayed.
// It loops until the instruction budget ends it.
const pairKernel = `
	.equ N, 24
_start:
	movz x6, 1
	movz x7, 2
pass:
	la   x1, buf
	movz x2, 0
loop:
	ldp  x4, x5, [x1]
	add  x6, x6, x4
	add  x7, x7, x5
	stp  x7, x6, [x1]
	addi x1, x1, 16
	addi x2, x2, 1
	slti x3, x2, N
	bne  x3, xzr, loop
	b    pass
	.align 8
buf: .space 512
`

// TestReplicaReplayMatchesReexecution proves that replaying the
// oracle's post-hook destination values gives the same register
// checkpoints as re-executing every committed instruction under the same
// fault hook: for every main-core fault target, soft and sticky, and
// fault-free, on a compute kernel, a memory kernel with FP registers and
// a kernel whose pair loads write two live registers.
func TestReplicaReplayMatchesReexecution(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxInstrs = 20_000
	cfg.TimeoutInstrs = 1000 // many checkpoints per run
	diverged := 0
	for _, name := range []string{"pairs", "bitcount", "stream"} {
		p, _, err := LoadWorkload(name)
		if name == "pairs" {
			p, err = MustAssemble(pairKernel), nil
		}
		if err != nil {
			t.Fatal(err)
		}
		var clean []isa.ArchRegs
		t.Run(name+"/fault-free", func(t *testing.T) {
			if clean = replaySeals(t, cfg, p, nil); len(clean) < 10 {
				t.Fatalf("only %d checkpoints", len(clean))
			}
		})
		for _, target := range FaultTargets() {
			if target == FaultCheckerReg {
				continue // checker-side: never reaches the main core
			}
			seq := strikeSeq(t, p, target, 3000)
			for _, sticky := range []bool{false, true} {
				f := Fault{Target: target, Seq: seq, Bit: 5, Sticky: sticky}
				kind := "soft"
				if sticky {
					kind = "sticky"
				}
				t.Run(name+"/"+string(target)+"/"+kind, func(t *testing.T) {
					seals := replaySeals(t, cfg, p, []Fault{f})
					if len(seals) == 0 {
						t.Fatal("no checkpoints")
					}
					for i := range seals {
						if i >= len(clean) || seals[i] != clean[i] {
							diverged++
							break
						}
					}
				})
			}
		}
	}
	if diverged == 0 {
		t.Fatal("no fault changed any checkpoint; the hooks were not installed")
	}
}
