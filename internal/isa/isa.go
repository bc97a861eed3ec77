// Package isa defines the byte-coded instruction set of the simulated
// Mesa-like processor (§5 of the paper).
//
// The encoding's design criterion is economy of space: instructions are one,
// two, three or four bytes long, the most frequent operations (loads and
// stores of the first few locals, small literals, calls of a module's most
// frequently called external procedures) have one-byte forms, and a stack is
// used for working storage to save address bits. The paper reports that
// about two-thirds of compiled instructions occupy a single byte; experiment
// E3 measures the same statistic over our compiled corpus.
//
// Call instructions:
//
//   - EFC0..EFC7 / EFCB: external call through the link vector (I2, §5.1) —
//     the four-level LV → GFT → global frame → EV indirection.
//   - LFC0..LFC3 / LFCB: call within the module (one level: EV only).
//   - DCALL: the §6 DIRECTCALL — a 24-bit code address whose target holds
//     the callee's global frame and frame-size index inline, so the IFU can
//     treat the call like an unconditional jump.
//   - SDCALL: the §6 SHORTDIRECTCALL — PC-relative, three bytes.
//   - RET: free the frame, XFER[returnLink].
//   - XFERO: the general transfer — pops a context word; uniform support
//     for coroutines, processes and anything else (§3).
package isa

import "fmt"

// EvalStackDepth is the evaluation-stack capacity in words. With 16-word
// register banks and three linkage slots per frame, 13 stack words rename
// cleanly into a callee's first locals (Mesa used a depth of 14). It lives
// here, with the instruction set, because it is an architectural constant
// of the encoding: the static verifier bounds per-pc stack depths against
// it without importing the execution engine.
const EvalStackDepth = 13

// Op is a one-byte opcode.
type Op byte

// Opcodes. Order is part of the encoding; do not reorder.
const (
	NOOP Op = iota
	HALT    // stop the processor (end of the root context)
	OUT     // pop a word, append it to the machine's output record

	// Loads and stores of local variables. LL0..LL7/SL0..SL7 are the
	// one-byte fast forms; LLB/SLB take a byte index.
	LL0
	LL1
	LL2
	LL3
	LL4
	LL5
	LL6
	LL7
	SL0
	SL1
	SL2
	SL3
	SL4
	SL5
	SL6
	SL7
	LLB // arg: local index
	SLB // arg: local index
	LAB // arg: local index; push the ADDRESS of a local (§7.4 pointers to locals)

	// Globals (module variables in the global frame).
	LG0
	LG1
	LG2
	LG3
	LGB // arg: global index
	SGB // arg: global index

	// Literals.
	LIN1 // push 0xffff (-1)
	LI0
	LI1
	LI2
	LI3
	LI4
	LI5
	LI6
	LI7
	LIB // arg: unsigned byte literal
	LIW // arg: 16-bit literal

	// Arithmetic and logic (16-bit; DIV/MOD are signed and trap on zero).
	ADD
	SUB
	MUL
	DIV
	MOD
	NEG
	AND
	OR
	XOR
	NOT
	SHL
	SHR

	// Stack manipulation.
	DUP
	POP
	EXCH

	// Memory through pointers.
	LDIND // pop addr, push mem[addr]
	STIND // pop addr, pop value, mem[addr] = value
	RFB   // arg: field offset; pop ptr, push mem[ptr+n] (the paper's READFIELD)
	WFB   // arg: field offset; pop ptr, pop value, mem[ptr+n] = value

	// Jumps. Offsets are relative to the address of the jump opcode.
	JB   // arg: signed byte offset, unconditional
	JW   // arg: signed 16-bit offset, unconditional
	JZB  // arg: signed byte; pop, jump if zero
	JNZB // arg: signed byte; pop, jump if nonzero
	JEB  // arg: signed byte; pop b, pop a, jump if a = b
	JNEB
	JLB // signed comparison a < b
	JLEB
	JGB
	JGEB

	// Control transfers.
	EFC0 // external calls through link vector entries 0..7, one byte
	EFC1
	EFC2
	EFC3
	EFC4
	EFC5
	EFC6
	EFC7
	EFCB // arg: link vector index
	LFC0 // local calls of entry-vector slots 0..3, one byte
	LFC1
	LFC2
	LFC3
	LFCB   // arg: entry vector index
	DCALL  // arg: 24-bit code address of the callee's inline header (§6)
	SDCALL // arg: signed 16-bit PC-relative address of the header (§6)
	RET
	XFERO    // pop a context word and XFER to it (§3)
	COCREATE // pop a procedure descriptor, push a fresh unstarted context for it
	LRC      // push returnContext (who transferred to us)
	LLF      // push the current frame pointer as a context word
	RETAIN   // mark the current frame retained (§4): RETURN will not free it
	FREE     // pop a context word, free its frame

	// Frame heap access for long argument records and retained storage.
	AFB   // arg: frame size index; allocate, push the frame pointer
	FFREE // pop a frame pointer allocated with AFB, free it

	TRAPB // arg: trap code; transfer to the software trap handler
	STRAP // pop a context word: it becomes the machine's trap handler

	NumOps // number of defined opcodes
)

// OperandKind says how to decode an instruction's operand bytes.
type OperandKind byte

const (
	OpdNone OperandKind = iota // one byte total
	OpdU8                      // unsigned byte operand
	OpdS8                      // signed byte operand (jumps)
	OpdU16                     // unsigned 16-bit operand, little-endian
	OpdS16                     // signed 16-bit operand (JW, SDCALL)
	OpdU24                     // 24-bit code address (DCALL)
)

// Size reports the operand size in bytes.
func (k OperandKind) Size() int {
	switch k {
	case OpdNone:
		return 0
	case OpdU8, OpdS8:
		return 1
	case OpdU16, OpdS16:
		return 2
	case OpdU24:
		return 3
	}
	return 0
}

// Info is one row of the static per-opcode metadata table: encoding
// (operand width), stack effect and the embedded operand of the one-byte
// fast forms. Name and Operand are declared in the literal table below;
// the derived columns are filled by meta.go's init from the opcode ranges.
type Info struct {
	Name    string
	Operand OperandKind
	// Pops and Pushes are the evaluation-stack effect; VarEffect (-1)
	// marks an effect that depends on machine state.
	Pops, Pushes int8
	// EmbArg is the operand embedded in a one-byte fast form (LL3 → 3,
	// EFC5 → 5, LIN1 → 0xFFFF); HasEmb marks it valid. Predecode folds it
	// into Inst.Arg so one handler serves fast and general forms alike.
	EmbArg int32
	HasEmb bool
}

// Len reports the total encoded length in bytes.
func (i Info) Len() int { return 1 + i.Operand.Size() }

// infos is keyed by opcode, so a second row for one opcode does not
// compile; TestOpNames checks that every opcode has a row of its own name.
var infos = [NumOps]Info{
	NOOP: {Name: "NOOP", Operand: OpdNone},
	HALT: {Name: "HALT", Operand: OpdNone},
	OUT:  {Name: "OUT", Operand: OpdNone},
	LL0:  {Name: "LL0", Operand: OpdNone}, LL1: {Name: "LL1", Operand: OpdNone}, LL2: {Name: "LL2", Operand: OpdNone}, LL3: {Name: "LL3", Operand: OpdNone},
	LL4: {Name: "LL4", Operand: OpdNone}, LL5: {Name: "LL5", Operand: OpdNone}, LL6: {Name: "LL6", Operand: OpdNone}, LL7: {Name: "LL7", Operand: OpdNone},
	SL0: {Name: "SL0", Operand: OpdNone}, SL1: {Name: "SL1", Operand: OpdNone}, SL2: {Name: "SL2", Operand: OpdNone}, SL3: {Name: "SL3", Operand: OpdNone},
	SL4: {Name: "SL4", Operand: OpdNone}, SL5: {Name: "SL5", Operand: OpdNone}, SL6: {Name: "SL6", Operand: OpdNone}, SL7: {Name: "SL7", Operand: OpdNone},
	LLB: {Name: "LLB", Operand: OpdU8},
	SLB: {Name: "SLB", Operand: OpdU8},
	LAB: {Name: "LAB", Operand: OpdU8},
	LG0: {Name: "LG0", Operand: OpdNone}, LG1: {Name: "LG1", Operand: OpdNone}, LG2: {Name: "LG2", Operand: OpdNone}, LG3: {Name: "LG3", Operand: OpdNone},
	LGB:  {Name: "LGB", Operand: OpdU8},
	SGB:  {Name: "SGB", Operand: OpdU8},
	LIN1: {Name: "LIN1", Operand: OpdNone},
	LI0:  {Name: "LI0", Operand: OpdNone}, LI1: {Name: "LI1", Operand: OpdNone}, LI2: {Name: "LI2", Operand: OpdNone}, LI3: {Name: "LI3", Operand: OpdNone},
	LI4: {Name: "LI4", Operand: OpdNone}, LI5: {Name: "LI5", Operand: OpdNone}, LI6: {Name: "LI6", Operand: OpdNone}, LI7: {Name: "LI7", Operand: OpdNone},
	LIB: {Name: "LIB", Operand: OpdU8},
	LIW: {Name: "LIW", Operand: OpdU16},
	ADD: {Name: "ADD", Operand: OpdNone}, SUB: {Name: "SUB", Operand: OpdNone}, MUL: {Name: "MUL", Operand: OpdNone},
	DIV: {Name: "DIV", Operand: OpdNone}, MOD: {Name: "MOD", Operand: OpdNone}, NEG: {Name: "NEG", Operand: OpdNone},
	AND: {Name: "AND", Operand: OpdNone}, OR: {Name: "OR", Operand: OpdNone}, XOR: {Name: "XOR", Operand: OpdNone},
	NOT: {Name: "NOT", Operand: OpdNone}, SHL: {Name: "SHL", Operand: OpdNone}, SHR: {Name: "SHR", Operand: OpdNone},
	DUP: {Name: "DUP", Operand: OpdNone}, POP: {Name: "POP", Operand: OpdNone}, EXCH: {Name: "EXCH", Operand: OpdNone},
	LDIND: {Name: "LDIND", Operand: OpdNone},
	STIND: {Name: "STIND", Operand: OpdNone},
	RFB:   {Name: "RFB", Operand: OpdU8},
	WFB:   {Name: "WFB", Operand: OpdU8},
	JB:    {Name: "JB", Operand: OpdS8},
	JW:    {Name: "JW", Operand: OpdS16},
	JZB:   {Name: "JZB", Operand: OpdS8},
	JNZB:  {Name: "JNZB", Operand: OpdS8},
	JEB:   {Name: "JEB", Operand: OpdS8},
	JNEB:  {Name: "JNEB", Operand: OpdS8},
	JLB:   {Name: "JLB", Operand: OpdS8},
	JLEB:  {Name: "JLEB", Operand: OpdS8},
	JGB:   {Name: "JGB", Operand: OpdS8},
	JGEB:  {Name: "JGEB", Operand: OpdS8},
	EFC0:  {Name: "EFC0", Operand: OpdNone}, EFC1: {Name: "EFC1", Operand: OpdNone}, EFC2: {Name: "EFC2", Operand: OpdNone}, EFC3: {Name: "EFC3", Operand: OpdNone},
	EFC4: {Name: "EFC4", Operand: OpdNone}, EFC5: {Name: "EFC5", Operand: OpdNone}, EFC6: {Name: "EFC6", Operand: OpdNone}, EFC7: {Name: "EFC7", Operand: OpdNone},
	EFCB: {Name: "EFCB", Operand: OpdU8},
	LFC0: {Name: "LFC0", Operand: OpdNone}, LFC1: {Name: "LFC1", Operand: OpdNone}, LFC2: {Name: "LFC2", Operand: OpdNone}, LFC3: {Name: "LFC3", Operand: OpdNone},
	LFCB:     {Name: "LFCB", Operand: OpdU8},
	DCALL:    {Name: "DCALL", Operand: OpdU24},
	SDCALL:   {Name: "SDCALL", Operand: OpdS16},
	RET:      {Name: "RET", Operand: OpdNone},
	XFERO:    {Name: "XFERO", Operand: OpdNone},
	COCREATE: {Name: "COCREATE", Operand: OpdNone},
	LRC:      {Name: "LRC", Operand: OpdNone},
	LLF:      {Name: "LLF", Operand: OpdNone},
	RETAIN:   {Name: "RETAIN", Operand: OpdNone},
	FREE:     {Name: "FREE", Operand: OpdNone},
	AFB:      {Name: "AFB", Operand: OpdU8},
	FFREE:    {Name: "FFREE", Operand: OpdNone},
	TRAPB:    {Name: "TRAPB", Operand: OpdU8},
	STRAP:    {Name: "STRAP", Operand: OpdNone},
}

// InfoOf returns the metadata for op.
func InfoOf(op Op) Info {
	if op >= NumOps {
		return Info{Name: fmt.Sprintf("BAD(%d)", byte(op)), Operand: OpdNone}
	}
	return infos[op]
}

// String implements fmt.Stringer.
func (op Op) String() string { return InfoOf(op).Name }

// IsCall reports whether op transfers control to a procedure.
func (op Op) IsCall() bool {
	return (op >= EFC0 && op <= LFCB) || op == DCALL || op == SDCALL
}

// IsExternalCall reports whether op goes through the link vector.
func (op Op) IsExternalCall() bool { return op >= EFC0 && op <= EFCB }

// IsLocalCall reports whether op calls within the module.
func (op Op) IsLocalCall() bool { return op >= LFC0 && op <= LFCB }

// IsJump reports whether op is a branch within the procedure.
func (op Op) IsJump() bool { return op >= JB && op <= JGEB }

// Instr is a decoded (or not-yet-encoded) instruction. Before layout, Arg
// of a jump holds a label id and Arg of a call holds a symbol id; after
// layout it holds the encoded operand value.
type Instr struct {
	Op  Op
	Arg int32
}

// Len reports the encoded length of the instruction in bytes.
func (i Instr) Len() int { return int(lengths[i.Op]) }

// lengths is each opcode's encoded length, so Len reads one byte instead
// of copying an Info row. A byte past NumOps has InfoOf's fallback
// length: one byte.
var lengths = func() (t [256]uint8) {
	for op := range t {
		t[op] = uint8(InfoOf(Op(op)).Len())
	}
	return t
}()

// String renders the instruction for disassembly listings.
func (i Instr) String() string {
	info := InfoOf(i.Op)
	if info.Operand == OpdNone {
		return info.Name
	}
	return fmt.Sprintf("%s %d", info.Name, i.Arg)
}

// Append encodes i onto buf.
func Append(buf []byte, i Instr) []byte {
	buf = append(buf, byte(i.Op))
	switch InfoOf(i.Op).Operand {
	case OpdU8:
		buf = append(buf, byte(i.Arg))
	case OpdS8:
		buf = append(buf, byte(int8(i.Arg)))
	case OpdU16, OpdS16:
		buf = append(buf, byte(i.Arg), byte(i.Arg>>8))
	case OpdU24:
		buf = append(buf, byte(i.Arg), byte(i.Arg>>8), byte(i.Arg>>16))
	}
	return buf
}

// The decode failure errors. The predecoded execution engine reports the
// same failures lazily, from the same constructors, so a malformed byte
// stream fails with byte-for-byte the error Decode would have raised at
// run time.

// ErrPCRange reports a program counter outside the code space.
func ErrPCRange(pc, n int) error {
	return fmt.Errorf("isa: pc %d outside code of %d bytes", pc, n)
}

func errBadOp(b byte, pc int) error {
	return fmt.Errorf("isa: bad opcode %#02x at %d", b, pc)
}

func errTruncated(name string, pc int) error {
	return fmt.Errorf("isa: truncated %s at %d", name, pc)
}

// Decode reads the instruction at code[pc:]. It returns the instruction
// with its operand sign-extended as appropriate, and the encoded size.
func Decode(code []byte, pc int) (Instr, int, error) {
	if pc < 0 || pc >= len(code) {
		return Instr{}, 0, ErrPCRange(pc, len(code))
	}
	op := Op(code[pc])
	if op >= NumOps {
		return Instr{}, 0, errBadOp(code[pc], pc)
	}
	info := infos[op]
	n := info.Len()
	if pc+n > len(code) {
		return Instr{}, 0, errTruncated(info.Name, pc)
	}
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
	return Instr{Op: op, Arg: arg}, n, nil
}

// EncodeAll lays a sequence of finalized instructions into bytes.
func EncodeAll(instrs []Instr) []byte {
	var buf []byte
	for _, i := range instrs {
		buf = Append(buf, i)
	}
	return buf
}
