package fault

import (
	"math/rand"
	"testing"

	"paradet/internal/isa"
)

// execEnv is a minimal Env recording stores.
type execEnv struct {
	stores map[uint64]uint64
}

func (e *execEnv) Load(addr uint64, size uint8) uint64 { return 0 }
func (e *execEnv) Store(addr uint64, size uint8, val uint64) {
	if e.stores == nil {
		e.stores = map[uint64]uint64{}
	}
	e.stores[addr] = val
}
func (e *execEnv) ReadTime() uint64       { return 0 }
func (e *execEnv) Syscall(m *isa.Machine) {}

func TestAppliesSoftVsHard(t *testing.T) {
	soft := Fault{Seq: 5}
	if soft.applies(4) || !soft.applies(5) || soft.applies(6) {
		t.Error("soft fault must fire exactly once")
	}
	hard := Fault{Seq: 5, Sticky: true}
	if hard.applies(4) || !hard.applies(5) || !hard.applies(500) {
		t.Error("hard fault must persist from Seq onwards")
	}
}

func TestMainHookFlipsDestReg(t *testing.T) {
	inj := &Injector{Faults: []Fault{{Target: DestReg, Seq: 3, Bit: 4}}}
	hook := inj.MainHook()
	m := &isa.Machine{}
	di := &isa.DynInst{Seq: 3, Inst: isa.Inst{Op: isa.OpADD, Rd: 7}}
	m.X[7] = 0
	hook(m, di)
	if m.X[7] != 1<<4 {
		t.Errorf("x7 = %#x, want bit 4 flipped", m.X[7])
	}
	// Wrong seq: no effect.
	m.X[7] = 0
	hook(m, &isa.DynInst{Seq: 4, Inst: isa.Inst{Op: isa.OpADD, Rd: 7}})
	if m.X[7] != 0 {
		t.Error("fault fired at wrong seq")
	}
}

func TestMainHookIsDeterministic(t *testing.T) {
	inj := &Injector{Faults: []Fault{{Target: DestReg, Seq: 1, Bit: 9}}}
	h1, h2 := inj.MainHook(), inj.MainHook()
	m1, m2 := &isa.Machine{}, &isa.Machine{}
	di := &isa.DynInst{Seq: 1, Inst: isa.Inst{Op: isa.OpADD, Rd: 3}}
	h1(m1, di)
	di2 := *di
	h2(m2, &di2)
	if m1.X[3] != m2.X[3] {
		t.Error("identical hooks must corrupt identically (oracle vs replica)")
	}
}

func TestStoreValueFaultCorruptsMemoryAndRecord(t *testing.T) {
	inj := &Injector{Faults: []Fault{{Target: StoreValue, Seq: 1, Bit: 0}}}
	hook := inj.MainHook()
	env := &execEnv{}
	m := &isa.Machine{Env: env}
	di := &isa.DynInst{
		Seq: 1, Inst: isa.Inst{Op: isa.OpSTRD, Rd: 2},
		NMem: 1,
	}
	di.Mem[0] = isa.MemOp{Addr: 0x100, Val: 0xAA, Size: 8, IsStore: true}
	hook(m, di)
	if di.Mem[0].Val != 0xAB {
		t.Errorf("log copy not corrupted: %#x", di.Mem[0].Val)
	}
	if env.stores[0x100] != 0xAB {
		t.Errorf("memory not corrupted: %#x", env.stores[0x100])
	}
}

func TestTargetsIgnoreNonMatchingInstructions(t *testing.T) {
	// A load-targeted fault striking an ALU op is a no-op strike.
	inj := &Injector{Faults: []Fault{{Target: LoadPostLFU, Seq: 1, Bit: 2}}}
	hook := inj.MainHook()
	m := &isa.Machine{}
	di := &isa.DynInst{Seq: 1, Inst: isa.Inst{Op: isa.OpADD, Rd: 5}}
	hook(m, di)
	if m.X[5] != 0 {
		t.Error("load fault must not corrupt ALU destinations")
	}
}

func TestControlFaultCorruptsNextPC(t *testing.T) {
	inj := &Injector{Faults: []Fault{{Target: Control, Seq: 1, Bit: 3}}}
	hook := inj.MainHook()
	m := &isa.Machine{}
	di := &isa.DynInst{Seq: 1, NextPC: 0x1000, Inst: isa.Inst{Op: isa.OpADD}}
	hook(m, di)
	if di.NextPC == 0x1000 {
		t.Error("control fault must corrupt NextPC")
	}
}

func TestCheckerHookSelectsCore(t *testing.T) {
	inj := &Injector{Faults: []Fault{{Target: CheckerReg, Seq: 2, Bit: 1, CheckerID: 3}}}
	if inj.CheckerHook(0) != nil {
		t.Error("hook for unaffected checker must be nil")
	}
	hook := inj.CheckerHook(3)
	if hook == nil {
		t.Fatal("hook for victim checker missing")
	}
	m := &isa.Machine{}
	di := &isa.DynInst{Inst: isa.Inst{Op: isa.OpADD, Rd: 1}}
	hook(m, di) // executed #1: no fire
	if m.X[1] != 0 {
		t.Error("fired early")
	}
	hook(m, di) // executed #2: fire
	if m.X[1] == 0 {
		t.Error("did not fire at local instruction 2")
	}
	// MainHook excludes checker faults entirely.
	if inj.MainHook() != nil {
		t.Error("main hook must be nil when only checker faults exist")
	}
}

func TestRandomFaultStaysInRange(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		f := RandomFault(r, 1000)
		if f.Seq < 1 || f.Seq > 1000 {
			t.Fatalf("fault seq %d out of range", f.Seq)
		}
		if f.Target == CheckerReg || f.Target == LoadPreLFU {
			t.Fatalf("random campaign must stay in-sphere, got %v", f.Target)
		}
	}
}

func TestStringDescriptions(t *testing.T) {
	f := Fault{Target: StoreAddr, Seq: 7, Bit: 3, Sticky: true}
	s := f.String()
	if s == "" || f.Target.String() != "store-addr" {
		t.Errorf("descriptions broken: %q", s)
	}
}
