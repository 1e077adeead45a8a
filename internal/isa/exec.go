package isa

import (
	"fmt"
	"math"
	"math/bits"
)

// Env supplies the data environment an executing Machine runs against
// (instructions come from Machine.Prog). The main core's functional
// oracle uses a real memory image; a checker core uses a log-backed Env
// that serves loads from its load-store log segment and validates stores
// instead of performing them (§IV-B).
type Env interface {
	// Load reads size bytes at addr, zero-extended.
	Load(addr uint64, size uint8) uint64
	// Store writes the low size bytes of val at addr.
	Store(addr uint64, size uint8, val uint64)
	// ReadTime supplies the RDTIME value. It is the ISA's one
	// non-deterministic input, so the detection hardware must forward it
	// to the checkers through the log (§IV-D).
	ReadTime() uint64
	// Syscall implements SVC with full access to machine state.
	Syscall(m *Machine)
}

// MemOp describes one data-memory micro-access performed by an
// instruction. Pair instructions perform two.
type MemOp struct {
	Addr    uint64
	Val     uint64 // value loaded or stored
	Size    uint8
	IsStore bool
}

// DynInst is the record of one dynamically executed instruction, produced
// by the functional model and consumed by the timing models and by the
// detection hardware (which derives load-store log entries from it).
type DynInst struct {
	Seq    uint64 // 1-based dynamic instruction number
	PC     uint64
	NextPC uint64
	Inst   Inst
	Taken  bool // branch outcome
	NMem   uint8
	Mem    [2]MemOp
	// RDTIME support: the non-deterministic value that must be forwarded
	// through the load-store log.
	HasNonDet bool
	NonDetVal uint64
	Halt      bool
	// Thread distinguishes SMT contexts in the redundant-multithreading
	// baseline (0 = leading, 1 = trailing); the detection system proper
	// is single-threaded.
	Thread uint8
}

// IsBranch reports whether the instruction can redirect control flow.
func (d *DynInst) IsBranch() bool { return d.Inst.Op.IsBranch() }

// ProgError is an architectural program fault (bad fetch, undefined
// instruction). Under the detection scheme, process termination from such
// faults is held back until outstanding checks complete (§IV-H).
type ProgError struct {
	PC     uint64
	Reason string
}

func (e *ProgError) Error() string {
	return fmt.Sprintf("isa: program fault at pc %#x: %s", e.PC, e.Reason)
}

// Hooks are optional instrumentation points on a Machine. The fault
// injector uses PostExec to corrupt architectural state at a precise
// dynamic instruction, emulating soft and hard errors in the main core.
type Hooks struct {
	// PostExec runs after each retired instruction. It may mutate the
	// machine state and the DynInst record (the record is what the
	// detection hardware will log).
	PostExec func(m *Machine, di *DynInst)
}

// Machine is the PDX64 architectural (functional) model. The main core's
// oracle and every checker core instantiate one; they differ only in Env.
type Machine struct {
	X  [NumIntRegs]uint64 // X[31] reads as zero
	F  [NumFPRegs]uint64  // raw float64 bits
	PC uint64

	// Prog is the code to run; it must not change after the first Step.
	Prog   *Program
	Env    Env
	Hooks  Hooks
	Halted bool

	// InstCount counts retired instructions (Seq of the last DynInst).
	InstCount uint64

	// code caches Prog's predecoded table: code[i] is at codeBase+4*i.
	code     []Inst
	codeBase uint64
}

// ReadX reads an integer register honouring the zero register.
func (m *Machine) ReadX(r Reg) uint64 {
	if r == ZeroReg {
		return 0
	}
	return m.X[r]
}

// WriteX writes an integer register; writes to the zero register are
// discarded.
func (m *Machine) WriteX(r Reg, v uint64) {
	if r != ZeroReg {
		m.X[r] = v
	}
}

// ReadF reads a floating-point register as a float64.
func (m *Machine) ReadF(r Reg) float64 { return math.Float64frombits(m.F[r]) }

// WriteF writes a float64 into a floating-point register.
func (m *Machine) WriteF(r Reg, v float64) { m.F[r] = math.Float64bits(v) }

// ArchRegs snapshots the architectural register file plus PC, the content
// of one register checkpoint (§IV-D: "architectural register checkpoints
// from the main core").
type ArchRegs struct {
	X  [NumIntRegs]uint64
	F  [NumFPRegs]uint64
	PC uint64
}

// Snapshot captures the architectural registers and PC.
func (m *Machine) Snapshot() ArchRegs {
	return ArchRegs{X: m.X, F: m.F, PC: m.PC}
}

// Restore loads a register checkpoint into the machine.
func (m *Machine) Restore(a ArchRegs) {
	m.X = a.X
	m.F = a.F
	m.PC = a.PC
	m.X[ZeroReg] = 0
}

// Diff returns a description of the first difference between two register
// snapshots, or "" if identical. PC is compared too: a checker that ends a
// segment at a different PC has diverged.
func (a ArchRegs) Diff(b ArchRegs) string {
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return fmt.Sprintf("x%d: %#x != %#x", i, a.X[i], b.X[i])
		}
	}
	for i := range a.F {
		if a.F[i] != b.F[i] {
			return fmt.Sprintf("f%d: %#x != %#x", i, a.F[i], b.F[i])
		}
	}
	if a.PC != b.PC {
		return fmt.Sprintf("pc: %#x != %#x", a.PC, b.PC)
	}
	return ""
}

// Step executes one instruction, filling di (which must be non-nil) with
// the dynamic record. It returns a *ProgError for architectural faults.
// After a fault or HLT the machine is halted and further Steps fail.
func (m *Machine) Step(di *DynInst) error {
	if m.Halted {
		return &ProgError{PC: m.PC, Reason: "machine is halted"}
	}
	if m.code == nil && m.Prog != nil {
		m.codeBase, m.code = m.Prog.Insts()
	}
	// A PC below codeBase wraps to an index far past the table.
	i := (m.PC - m.codeBase) >> 2
	if m.PC%4 != 0 || i >= uint64(len(m.code)) {
		m.Halted = true
		return &ProgError{PC: m.PC, Reason: "instruction fetch outside mapped code"}
	}
	in := m.code[i]
	if in.Op == OpInvalid {
		m.Halted = true
		return &ProgError{PC: m.PC, Reason: "undefined instruction"}
	}

	m.InstCount++
	// Reset in place: callers reuse the record (often a ROB slot).
	di.Seq, di.PC, di.NextPC, di.Inst = m.InstCount, m.PC, 0, in
	di.Taken, di.NMem, di.Mem = false, 0, [2]MemOp{}
	di.HasNonDet, di.NonDetVal, di.Halt, di.Thread = false, 0, false, 0
	next := m.PC + 4

	switch in.Op {
	case OpADD:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)+m.ReadX(in.Rs2))
	case OpSUB:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)-m.ReadX(in.Rs2))
	case OpAND:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)&m.ReadX(in.Rs2))
	case OpORR:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)|m.ReadX(in.Rs2))
	case OpXOR:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)^m.ReadX(in.Rs2))
	case OpLSL:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)<<(m.ReadX(in.Rs2)&63))
	case OpLSR:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)>>(m.ReadX(in.Rs2)&63))
	case OpASR:
		m.WriteX(in.Rd, uint64(int64(m.ReadX(in.Rs1))>>(m.ReadX(in.Rs2)&63)))
	case OpMUL:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)*m.ReadX(in.Rs2))
	case OpDIV:
		m.WriteX(in.Rd, uint64(sdiv(int64(m.ReadX(in.Rs1)), int64(m.ReadX(in.Rs2)))))
	case OpUDIV:
		m.WriteX(in.Rd, udiv(m.ReadX(in.Rs1), m.ReadX(in.Rs2)))
	case OpREM:
		m.WriteX(in.Rd, uint64(srem(int64(m.ReadX(in.Rs1)), int64(m.ReadX(in.Rs2)))))
	case OpUREM:
		m.WriteX(in.Rd, urem(m.ReadX(in.Rs1), m.ReadX(in.Rs2)))
	case OpSLT:
		m.WriteX(in.Rd, b2i(int64(m.ReadX(in.Rs1)) < int64(m.ReadX(in.Rs2))))
	case OpSLTU:
		m.WriteX(in.Rd, b2i(m.ReadX(in.Rs1) < m.ReadX(in.Rs2)))
	case OpSEQ:
		m.WriteX(in.Rd, b2i(m.ReadX(in.Rs1) == m.ReadX(in.Rs2)))

	case OpADDI:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)+uint64(in.Imm))
	case OpANDI:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)&uint64(in.Imm))
	case OpORRI:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)|uint64(in.Imm))
	case OpXORI:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)^uint64(in.Imm))
	case OpLSLI:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)<<(uint64(in.Imm)&63))
	case OpLSRI:
		m.WriteX(in.Rd, m.ReadX(in.Rs1)>>(uint64(in.Imm)&63))
	case OpASRI:
		m.WriteX(in.Rd, uint64(int64(m.ReadX(in.Rs1))>>(uint64(in.Imm)&63)))
	case OpSLTI:
		m.WriteX(in.Rd, b2i(int64(m.ReadX(in.Rs1)) < in.Imm))

	case OpMOVZ:
		sh := uint(in.Imm>>16&3) * 16
		m.WriteX(in.Rd, uint64(in.Imm&0xffff)<<sh)
	case OpMOVK:
		sh := uint(in.Imm>>16&3) * 16
		old := m.ReadX(in.Rd)
		mask := uint64(0xffff) << sh
		m.WriteX(in.Rd, old&^mask|uint64(in.Imm&0xffff)<<sh)

	case OpPOPC:
		m.WriteX(in.Rd, uint64(bits.OnesCount64(m.ReadX(in.Rs1))))
	case OpCLZ:
		m.WriteX(in.Rd, uint64(bits.LeadingZeros64(m.ReadX(in.Rs1))))

	case OpFSQRT:
		m.WriteF(in.Rd, math.Sqrt(m.ReadF(in.Rs1)))
	case OpFNEG:
		m.WriteF(in.Rd, -m.ReadF(in.Rs1))
	case OpFABS:
		m.WriteF(in.Rd, math.Abs(m.ReadF(in.Rs1)))
	case OpFMOV:
		m.F[in.Rd] = m.F[in.Rs1]
	case OpFCVTZS:
		m.WriteX(in.Rd, uint64(fcvtzs(m.ReadF(in.Rs1))))
	case OpSCVTF:
		m.WriteF(in.Rd, float64(int64(m.ReadX(in.Rs1))))
	case OpFMOVFX:
		m.F[in.Rd] = m.ReadX(in.Rs1)
	case OpFMOVXF:
		m.WriteX(in.Rd, m.F[in.Rs1])
	case OpRDTIME:
		v := m.Env.ReadTime()
		m.WriteX(in.Rd, v)
		di.HasNonDet = true
		di.NonDetVal = v

	case OpFADD:
		m.WriteF(in.Rd, m.ReadF(in.Rs1)+m.ReadF(in.Rs2))
	case OpFSUB:
		m.WriteF(in.Rd, m.ReadF(in.Rs1)-m.ReadF(in.Rs2))
	case OpFMUL:
		m.WriteF(in.Rd, m.ReadF(in.Rs1)*m.ReadF(in.Rs2))
	case OpFDIV:
		m.WriteF(in.Rd, m.ReadF(in.Rs1)/m.ReadF(in.Rs2))
	case OpFMIN:
		m.WriteF(in.Rd, math.Min(m.ReadF(in.Rs1), m.ReadF(in.Rs2)))
	case OpFMAX:
		m.WriteF(in.Rd, math.Max(m.ReadF(in.Rs1), m.ReadF(in.Rs2)))
	case OpFEQ:
		m.WriteX(in.Rd, b2i(m.ReadF(in.Rs1) == m.ReadF(in.Rs2)))
	case OpFLT:
		m.WriteX(in.Rd, b2i(m.ReadF(in.Rs1) < m.ReadF(in.Rs2)))
	case OpFLE:
		m.WriteX(in.Rd, b2i(m.ReadF(in.Rs1) <= m.ReadF(in.Rs2)))

	case OpLDRB, OpLDRH, OpLDRW, OpLDRD:
		addr := m.ReadX(in.Rs1) + uint64(in.Imm)
		size := in.Op.MemSize()
		v := m.Env.Load(addr, size)
		m.WriteX(in.Rd, v)
		di.addMem(MemOp{Addr: addr, Val: v, Size: size})
	case OpLDRF:
		addr := m.ReadX(in.Rs1) + uint64(in.Imm)
		v := m.Env.Load(addr, 8)
		m.F[in.Rd] = v
		di.addMem(MemOp{Addr: addr, Val: v, Size: 8})

	case OpSTRB, OpSTRH, OpSTRW, OpSTRD:
		addr := m.ReadX(in.Rs1) + uint64(in.Imm)
		size := in.Op.MemSize()
		v := m.ReadX(in.Rd) & sizeMask(size)
		m.Env.Store(addr, size, v)
		di.addMem(MemOp{Addr: addr, Val: v, Size: size, IsStore: true})
	case OpSTRF:
		addr := m.ReadX(in.Rs1) + uint64(in.Imm)
		v := m.F[in.Rd]
		m.Env.Store(addr, 8, v)
		di.addMem(MemOp{Addr: addr, Val: v, Size: 8, IsStore: true})

	case OpLDP:
		addr := m.ReadX(in.Rs1) + uint64(in.Imm)
		v1 := m.Env.Load(addr, 8)
		v2 := m.Env.Load(addr+8, 8)
		m.WriteX(in.Rd, v1)
		m.WriteX(in.Rs2, v2)
		di.addMem(MemOp{Addr: addr, Val: v1, Size: 8})
		di.addMem(MemOp{Addr: addr + 8, Val: v2, Size: 8})
	case OpSTP:
		addr := m.ReadX(in.Rs1) + uint64(in.Imm)
		v1 := m.ReadX(in.Rd)
		v2 := m.ReadX(in.Rs2)
		m.Env.Store(addr, 8, v1)
		m.Env.Store(addr+8, 8, v2)
		di.addMem(MemOp{Addr: addr, Val: v1, Size: 8, IsStore: true})
		di.addMem(MemOp{Addr: addr + 8, Val: v2, Size: 8, IsStore: true})

	case OpBEQ:
		next = m.branch(di, in, next, m.ReadX(in.Rs1) == m.ReadX(in.Rs2))
	case OpBNE:
		next = m.branch(di, in, next, m.ReadX(in.Rs1) != m.ReadX(in.Rs2))
	case OpBLT:
		next = m.branch(di, in, next, int64(m.ReadX(in.Rs1)) < int64(m.ReadX(in.Rs2)))
	case OpBGE:
		next = m.branch(di, in, next, int64(m.ReadX(in.Rs1)) >= int64(m.ReadX(in.Rs2)))
	case OpBLTU:
		next = m.branch(di, in, next, m.ReadX(in.Rs1) < m.ReadX(in.Rs2))
	case OpBGEU:
		next = m.branch(di, in, next, m.ReadX(in.Rs1) >= m.ReadX(in.Rs2))
	case OpJAL:
		m.WriteX(in.Rd, m.PC+4)
		next = m.PC + uint64(in.Imm)
		di.Taken = true
	case OpJALR:
		target := (m.ReadX(in.Rs1) + uint64(in.Imm)) &^ 3
		m.WriteX(in.Rd, m.PC+4)
		next = target
		di.Taken = true

	case OpNOP:
		// nothing
	case OpHLT:
		m.Halted = true
		di.Halt = true
	case OpSVC:
		m.Env.Syscall(m)

	default:
		m.Halted = true
		return &ProgError{PC: m.PC, Reason: "undefined instruction"}
	}

	di.NextPC = next
	m.PC = next
	m.X[ZeroReg] = 0
	if m.Hooks.PostExec != nil {
		m.Hooks.PostExec(m, di)
		// The hook may corrupt NextPC to model a control-flow fault.
		m.PC = di.NextPC
	}
	return nil
}

func (m *Machine) branch(di *DynInst, in Inst, fallthrough_ uint64, taken bool) uint64 {
	if taken {
		di.Taken = true
		return m.PC + uint64(in.Imm)
	}
	return fallthrough_
}

func (d *DynInst) addMem(op MemOp) {
	d.Mem[d.NMem] = op
	d.NMem++
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sizeMask(size uint8) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*uint(size)) - 1
}

func sdiv(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == math.MinInt64 && b == -1:
		return math.MinInt64
	default:
		return a / b
	}
}

func udiv(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func srem(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == math.MinInt64 && b == -1:
		return 0
	default:
		return a % b
	}
}

func urem(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

func fcvtzs(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(f)
	}
}
