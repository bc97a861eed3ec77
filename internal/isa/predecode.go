package isa

// Predecoding hoists all instruction-decode work out of the execution hot
// path, the same way the paper's IFU (§6) hoists instruction fetch: the
// byte stream never changes after load, so the operand assembly, the
// sign extension, the fast-form folding and even the DIRECTCALL header
// reads are done once per image instead of once per executed instruction.

// Inst is one predecoded instruction: fixed size, operand resolved, jump
// target absolute, and — for DCALL/SDCALL — the callee's inline header
// (global frame, frame-size index) pre-read so the call fast path needs
// zero decode work (§6's inline-call-site trick).
type Inst struct {
	Op   Op
	Size uint8 // encoded length in bytes; 0 marks a slot with no valid instruction
	bad  badKind
	// CallOK marks a DCALL/SDCALL whose inline header lies inside the code
	// space; GF and FSI then hold the pre-read header and Target+HeaderSkip
	// is the callee entry. When false the handler takes the general path,
	// which reproduces the exact out-of-range code-read error.
	CallOK bool
	FSI    uint8  // pre-read frame-size index (CallOK)
	GF     uint16 // pre-read global frame word (CallOK)
	// Arg is the resolved operand: sign-extended, with the one-byte fast
	// forms folded to their embedded value (LL3 → 3, EFC5 → 5).
	Arg int32
	// Target is the absolute byte address a control transfer redirects to:
	// for jumps the already-added opAddr+offset, for DCALL/SDCALL the
	// header address.
	Target uint32
}

// HeaderSkip is the distance from a direct call's header address to the
// callee's first instruction (the image.HeaderBytes inline header).
const HeaderSkip = 3

type badKind uint8

const (
	badNone badKind = iota
	badOpcode
	badTruncated
)

// Valid reports whether a slot holds a decodable instruction.
func (in *Inst) Valid() bool { return in.Size != 0 }

// Err reconstructs the exact error Decode(code, pc) reports for an
// invalid slot; nil for valid slots. The engine calls it only off the hot
// path, when execution actually reaches a malformed byte.
func (in *Inst) Err(code []byte, pc int) error {
	switch in.bad {
	case badOpcode:
		return errBadOp(code[pc], pc)
	case badTruncated:
		return errTruncated(infos[in.Op].Name, pc)
	}
	return nil
}

// Predecode expands code into a dense table of predecoded instructions,
// one slot per byte offset: insts[pc] describes the instruction Decode
// would read at pc. The table is dense rather than compacted because the
// machine may legitimately begin execution at any byte a context ever
// saved as its PC — entry points, jump targets, DIRECTCALL headers and
// resumption points are all just byte addresses — so the byte-pc →
// instruction map the engine needs is the identity function. Slots where
// no instruction decodes (entry-vector tables and inline headers live in
// the code space too) are marked invalid and reproduce Decode's error if
// execution ever reaches them.
//
// The error result is reserved for future encodings; the current encoding
// predecodes any byte stream.
func Predecode(code []byte) ([]Inst, error) {
	insts := make([]Inst, len(code))
	for pc := range code {
		in := &insts[pc]
		op := Op(code[pc])
		if op >= NumOps {
			in.bad = badOpcode
			continue
		}
		info := &infos[op]
		n := 1 + info.Operand.Size()
		if pc+n > len(code) {
			in.Op = op
			in.bad = badTruncated
			continue
		}
		in.Op = op
		in.Size = uint8(n)
		var arg int32
		switch info.Operand {
		case OpdU8:
			arg = int32(code[pc+1])
		case OpdS8:
			arg = int32(int8(code[pc+1]))
		case OpdU16:
			arg = int32(code[pc+1]) | int32(code[pc+2])<<8
		case OpdS16:
			arg = int32(int16(uint16(code[pc+1]) | uint16(code[pc+2])<<8))
		case OpdU24:
			arg = int32(code[pc+1]) | int32(code[pc+2])<<8 | int32(code[pc+3])<<16
		}
		if info.HasEmb {
			arg = info.EmbArg
		}
		in.Arg = arg
		switch {
		case op.IsJump():
			in.Target = uint32(int64(pc) + int64(arg))
		case op == DCALL:
			resolveHeader(code, in, uint32(arg))
		case op == SDCALL:
			resolveHeader(code, in, uint32(int64(pc)+int64(arg)))
		}
	}
	return insts, nil
}

// resolveHeader pre-reads a direct call's inline header. The header bytes
// are code-space bytes, immutable after load, and the machine charges
// nothing for reading them (the IFU prefetches them along with the call
// target), so hoisting the read changes no metrics.
func resolveHeader(code []byte, in *Inst, hdr uint32) {
	in.Target = hdr
	if int64(hdr)+2 < int64(len(code)) {
		in.GF = uint16(code[hdr]) | uint16(code[hdr+1])<<8
		in.FSI = code[hdr+2]
		in.CallOK = true
	}
}
