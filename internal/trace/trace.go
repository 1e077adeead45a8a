// Package trace runs the PDX64 functional oracle that produces the
// committed-path dynamic instruction stream consumed by the timing models
// (functional-first simulation). The oracle owns the program's
// architectural memory image; fault injection corrupts its state through
// the isa.Machine PostExec hook, so corrupted values propagate through
// subsequent architectural execution exactly as a real core-side error
// would (§IV of the paper).
package trace

import (
	"paradet/internal/isa"
	"paradet/internal/mem"
)

// StackTop is where the loader points SP. The stack grows down and is
// far above any assembled image.
const StackTop = 0x8000000

// Env is the oracle's execution environment: data in a sparse memory,
// RDTIME from a deterministic pseudo-time source, and SVC appending X0 to
// an output buffer. Instructions come from the read-only program image
// (the paper assumes the instruction stream is read-only, §IV-A).
type Env struct {
	Mem    *mem.Sparse
	Output []uint64

	// timeSeed makes RDTIME values distinct per run without being
	// recomputable by a checker (they must flow through the log).
	timeSeed uint64
	timeN    uint64
}

// NewEnv builds an environment with the program image loaded into memory.
func NewEnv(prog *isa.Program, m *mem.Sparse) *Env {
	m.SetBytes(prog.Origin, prog.Image)
	return &Env{Mem: m, timeSeed: 0x9e3779b97f4a7c15}
}

// Load implements isa.Env.
func (e *Env) Load(addr uint64, size uint8) uint64 { return e.Mem.Read(addr, size) }

// Store implements isa.Env.
func (e *Env) Store(addr uint64, size uint8, val uint64) { e.Mem.Write(addr, size, val) }

// ReadTime implements isa.Env with a deterministic but opaque sequence.
func (e *Env) ReadTime() uint64 {
	e.timeN++
	x := e.timeN * e.timeSeed
	x ^= x >> 29
	return x
}

// Syscall implements isa.Env: SVC emits X0 to the output buffer.
func (e *Env) Syscall(m *isa.Machine) { e.Output = append(e.Output, m.ReadX(0)) }

// Oracle streams the committed dynamic instructions of one program run.
// It implements ooo.TraceSource structurally (Next method).
type Oracle struct {
	M   isa.Machine
	Env *Env

	// MaxInstrs bounds the run (0 = unlimited). The stream ends cleanly
	// at the budget, as if the program were sampled.
	MaxInstrs uint64

	// Err records a program fault (bad fetch / undefined instruction)
	// that ended the stream. Under §IV-H the system holds back
	// termination until outstanding checks complete.
	Err error

	done bool
}

// NewOracle builds an oracle for prog over memory image m.
func NewOracle(prog *isa.Program, m *mem.Sparse, maxInstrs uint64) *Oracle {
	env := NewEnv(prog, m)
	o := &Oracle{Env: env, MaxInstrs: maxInstrs}
	o.M.Prog = prog
	o.M.Env = env
	o.M.PC = prog.Entry
	o.M.X[isa.RegSP] = StackTop
	return o
}

// Next implements the trace source: it retires one instruction from the
// functional model.
func (o *Oracle) Next(di *isa.DynInst) bool {
	if o.done {
		return false
	}
	if o.MaxInstrs > 0 && o.M.InstCount >= o.MaxInstrs {
		o.done = true
		return false
	}
	if err := o.M.Step(di); err != nil {
		o.Err = err
		o.done = true
		return false
	}
	if di.Halt {
		o.done = true
	}
	return true
}

// Done reports whether the stream has ended.
func (o *Oracle) Done() bool { return o.done }

// InitialRegs returns the architectural register state a run starts from,
// which seeds the first checkpoint of the detection hardware.
func InitialRegs(prog *isa.Program) isa.ArchRegs {
	var a isa.ArchRegs
	a.PC = prog.Entry
	a.X[isa.RegSP] = StackTop
	return a
}
