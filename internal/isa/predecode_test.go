package isa

import (
	"encoding/binary"
	"reflect"
	"sync"
	"testing"
)

const testOrigin = 0x1000

// imageOf lays words out little-endian from testOrigin.
func imageOf(words ...uint32) *Program {
	p := &Program{Origin: testOrigin, Entry: testOrigin}
	for _, w := range words {
		p.Image = binary.LittleEndian.AppendUint32(p.Image, w)
	}
	return p
}

// seededMachine runs prog from pc with every register holding a
// distinct, address-like value.
func seededMachine(prog *Program, pc uint64) *Machine {
	m := &Machine{Prog: prog, Env: newTestEnv(), PC: pc}
	for i := range m.X {
		m.X[i] = uint64(i)*0x1010 + 8
		m.F[i] = uint64(i) * 0x3ff0000000000001
	}
	m.X[ZeroReg] = 0
	return m
}

// fillGarbage sets every field reachable in v to a non-zero value, and
// every pointer to a fresh garbage-filled target, so a field that Step
// forgets to reset (including one added later) shows up as a difference
// from a zeroed record.
func fillGarbage(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		// Point at a garbage-filled value of its own, so a pointer Step
		// forgets to set still differs from the program's table.
		v.Set(reflect.New(v.Type().Elem()))
		fillGarbage(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillGarbage(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillGarbage(v.Index(i))
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0xa5a5a5a5a5a5a5a5 >> (64 - 8*v.Type().Size()))
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-0x5a5a5a5a5a5a5a5a >> (64 - 8*v.Type().Size()))
	default:
		panic("fillGarbage: unhandled kind " + v.Kind().String())
	}
}

// TestPredecodeMatchesDecode steps every opcode byte, defined or not,
// with several operand patterns, and checks that fetching from the
// predecoded image yields exactly what decoding the word does: the same
// instruction in the record, or the same undefined-instruction fault.
// Each step also runs into a record pre-filled with garbage, which must
// come out identical to one that started zeroed.
func TestPredecodeMatchesDecode(t *testing.T) {
	operands := []uint32{0, 0xffffff, 0x5a5a5a, 0xa5a5a5, 0x123457}
	for op := 0; op < 256; op++ {
		for _, low := range operands {
			word := uint32(op)<<24 | low
			prog := imageOf(word)
			want, decErr := Decode(word)

			var zeroed DynInst
			err := seededMachine(prog, testOrigin).Step(&zeroed)
			if decErr != nil {
				pe, ok := err.(*ProgError)
				if !ok || pe.PC != testOrigin || pe.Reason != "undefined instruction" {
					t.Fatalf("word %#08x: Decode fails, Step returned %v", word, err)
				}
				if zeroed != (DynInst{}) {
					t.Fatalf("word %#08x: faulting Step wrote the record: %+v", word, zeroed)
				}
				continue
			}
			if err != nil {
				t.Fatalf("word %#08x: Step: %v", word, err)
			}
			if zeroed.Inst != want || zeroed.Seq != 1 || zeroed.PC != testOrigin {
				t.Fatalf("word %#08x: record %+v, want inst %+v at seq 1 pc %#x",
					word, zeroed, want, testOrigin)
			}
			if _, _, operands := prog.Insts(); zeroed.Operands != &operands[0] {
				t.Fatalf("word %#08x: record points at %p, not the table's descriptor %p",
					word, zeroed.Operands, &operands[0])
			}

			var dirty DynInst
			fillGarbage(reflect.ValueOf(&dirty).Elem())
			if err := seededMachine(prog, testOrigin).Step(&dirty); err != nil {
				t.Fatalf("word %#08x: Step into garbage record: %v", word, err)
			}
			if dirty != zeroed {
				t.Fatalf("word %#08x: garbage record came out\n%+v\nzeroed record came out\n%+v",
					word, dirty, zeroed)
			}
		}
	}
}

// TestOperandTableMatchesSrcsDsts builds the operand table of an image
// holding every opcode byte with every combination of a few register
// numbers in the three register fields (the zero register, the pair
// registers of LDP/STP, the MOVK merge source, store-data sources and FP
// files all come up), and checks each descriptor against Inst.Srcs and
// Inst.Dsts, which define the operand rules.
func TestOperandTableMatchesSrcsDsts(t *testing.T) {
	regs := []uint32{0, 1, 7, 30, 31}
	var words []uint32
	for op := 0; op < 256; op++ {
		for _, rd := range regs {
			for _, rs1 := range regs {
				for _, rs2 := range regs {
					words = append(words, uint32(op)<<24|rd<<19|rs1<<14|rs2<<9|0x15)
				}
			}
		}
	}
	prog := imageOf(words...)
	_, insts, operands := prog.Insts()
	if len(operands) != len(words) || len(insts) != len(words) {
		t.Fatalf("%d descriptors and %d instructions for %d words", len(operands), len(insts), len(words))
	}
	same := func(a, b []RegRef) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	seen := map[string]bool{}
	for i, w := range words {
		in, err := Decode(w)
		if err != nil {
			if operands[i] != (Operands{}) {
				t.Fatalf("word %#08x: undefined word has operands %+v", w, operands[i])
			}
			continue
		}
		o := &operands[i]
		srcs, dsts := in.Srcs(nil), in.Dsts(nil)
		if !same(o.Srcs(), srcs) || !same(o.Dsts(), dsts) {
			t.Fatalf("%v: descriptor srcs %v dsts %v, Inst says srcs %v dsts %v",
				in, o.Srcs(), o.Dsts(), srcs, dsts)
		}
		if len(dsts) > 0 && dsts[0].FP {
			seen["fp destination"] = true
		}
		if len(dsts) == 2 {
			seen["pair destinations"] = true
		}
		if in.Op == OpSTP && len(srcs) == 3 {
			seen["pair store data"] = true
		}
		if in.Op == OpMOVK && len(srcs) == 1 {
			seen["movk merge source"] = true
		}
		if in.Op.IsStore() && in.Op != OpSTP && len(srcs) == 2 {
			seen["store data"] = true
		}
		if in.Rd == ZeroReg && !in.Op.IsStore() && in.Op.Format() == FmtR && len(dsts) == 0 {
			seen["zero-register destination dropped"] = true
		}
	}
	for _, k := range []string{"fp destination", "pair destinations", "pair store data",
		"movk merge source", "store data", "zero-register destination dropped"} {
		if !seen[k] {
			t.Errorf("no word exercised %s", k)
		}
	}
}

// TestPredecodeFetchFaults checks that a fetch faults exactly where the
// image has no whole aligned word, with the fetch-fault reason.
func TestPredecodeFetchFaults(t *testing.T) {
	nop := uint32(OpNOP) << 24
	twoWords := imageOf(nop, nop)
	ragged := imageOf(nop, nop)
	ragged.Image = ragged.Image[:6] // length not a multiple of 4
	// Origin off word alignment: fetch still needs an aligned PC, and
	// reads the word at that address, as Program.Word does.
	offset := &Program{Origin: testOrigin + 2, Image: append([]byte{0xee, 0xee}, twoWords.Image...)}

	cases := []struct {
		name string
		prog *Program
		pc   uint64
	}{
		{"misaligned", twoWords, testOrigin + 2},
		{"below origin", twoWords, testOrigin - 4},
		{"end-2", twoWords, twoWords.End() - 2},
		{"at end", twoWords, twoWords.End()},
		{"ragged end-2", ragged, ragged.End() - 2},
		{"ragged last partial word", ragged, testOrigin + 4},
		{"unaligned origin", offset, offset.Origin},
		{"no program", nil, testOrigin},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := seededMachine(c.prog, c.pc)
			var di DynInst
			err := m.Step(&di)
			pe, ok := err.(*ProgError)
			if !ok || pe.PC != c.pc || pe.Reason != "instruction fetch outside mapped code" {
				t.Fatalf("Step at %#x: %v, want fetch fault", c.pc, err)
			}
			if !m.Halted || m.InstCount != 0 {
				t.Fatalf("fault must halt without retiring: halted=%v count=%d", m.Halted, m.InstCount)
			}
		})
	}

	// Every PC around each image faults exactly where Program.Word has
	// no word, and otherwise runs the word Word reads.
	for _, p := range []*Program{twoWords, ragged, offset} {
		ran := 0
		for pc := p.Origin - 8; pc < p.End()+8; pc++ {
			w, ok := p.Word(pc)
			var di DynInst
			err := seededMachine(p, pc).Step(&di)
			if !ok {
				if pe, isPE := err.(*ProgError); !isPE || pe.Reason != "instruction fetch outside mapped code" {
					t.Fatalf("origin %#x pc %#x: Word has no word, Step returned %v", p.Origin, pc, err)
				}
				continue
			}
			want, decErr := Decode(w)
			if decErr != nil || err != nil || di.Inst != want {
				t.Fatalf("origin %#x pc %#x: ran %+v (err %v), Word holds %+v (err %v)",
					p.Origin, pc, di.Inst, err, want, decErr)
			}
			ran++
		}
		if want := len(p.Image) / 4; ran != want {
			t.Fatalf("origin %#x: %d PCs ran, want %d", p.Origin, ran, want)
		}
	}
}

// TestPredecodeSharedProgram runs one Program on many goroutines at
// once; under -race it proves the lazy table build is race-free.
func TestPredecodeSharedProgram(t *testing.T) {
	addi := Inst{Op: OpADDI, Rd: 1, Rs1: 1, Imm: 1}
	w, err := Encode(addi)
	if err != nil {
		t.Fatal(err)
	}
	prog := imageOf(w, w, w, uint32(OpHLT)<<24)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &Machine{Prog: prog, Env: newTestEnv(), PC: prog.Entry}
			var di DynInst
			for !m.Halted {
				if err := m.Step(&di); err != nil {
					t.Error(err)
					return
				}
			}
			if m.X[1] != 3 {
				t.Errorf("x1 = %d, want 3", m.X[1])
			}
		}()
	}
	wg.Wait()
}
