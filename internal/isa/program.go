package isa

import "sync"

// Program is a loadable memory image produced by the assembler.
type Program struct {
	// Entry is the initial PC (the `_start` label, or the image origin).
	Entry uint64
	// Origin and Image describe one contiguous segment.
	Origin uint64
	Image  []byte
	// Symbols maps labels to addresses.
	Symbols map[string]uint64

	// The predecoded instruction table (see Insts), which concurrent
	// campaign cells sharing one *Program build race-free.
	decodeOnce sync.Once
	instBase   uint64
	insts      []Inst
}

// End reports the first address past the image.
func (p *Program) End() uint64 { return p.Origin + uint64(len(p.Image)) }

// Word reads the 32-bit little-endian word at addr, if within the image.
func (p *Program) Word(addr uint64) (uint32, bool) {
	if addr < p.Origin || addr+4 > p.End() || addr%4 != 0 {
		return 0, false
	}
	off := addr - p.Origin
	b := p.Image[off : off+4]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, true
}

// Insts returns the predecoded instruction table: insts[i] is the
// decoded word at base+4*i, for every aligned word wholly inside the
// image, with Op == OpInvalid where the word is undefined. It is built
// on the first call and shared by all callers, who must not modify it:
// the instruction stream is read-only (§IV-A).
func (p *Program) Insts() (base uint64, insts []Inst) {
	p.decodeOnce.Do(func() {
		p.instBase = (p.Origin + 3) &^ 3
		p.insts = make([]Inst, 0, len(p.Image)/4)
		for addr := p.instBase; addr+4 <= p.End(); addr += 4 {
			w, _ := p.Word(addr)
			var in Inst // an undefined word stays Op == OpInvalid
			if Op(w>>24).Format() != FmtInvalid {
				in, _ = Decode(w) // cannot fail; the check skips its error allocation
			}
			p.insts = append(p.insts, in)
		}
	})
	return p.instBase, p.insts
}
