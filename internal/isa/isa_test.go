package isa

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpcodeTableComplete(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		if InfoOf(op).Name == "" {
			t.Errorf("opcode %d has no metadata", op)
		}
	}
	if InfoOf(NumOps).Name == "BAD(86)" || InfoOf(Op(255)).Name[:3] != "BAD" {
		t.Errorf("out-of-range opcode not flagged: %q", InfoOf(Op(255)).Name)
	}
}

// TestOpNames: every opcode's metadata row carries the opcode's own name.
// The opcodes are read from the Op const block of isa.go, so a misnamed
// row fails, and so does a missing one, whose Name is empty.
func TestOpNames(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "isa.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		if typ, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || typ.Name != "Op" {
			continue
		}
		for _, spec := range gd.Specs {
			for _, id := range spec.(*ast.ValueSpec).Names {
				names = append(names, id.Name)
			}
		}
	}
	if len(names) != int(NumOps)+1 || names[NumOps] != "NumOps" {
		t.Fatalf("isa.go's Op const block declares %d names, want the %d opcodes then NumOps", len(names), NumOps)
	}
	for op, name := range names[:NumOps] {
		if got := InfoOf(Op(op)).Name; got != name {
			t.Errorf("opcode %d is %s, but its metadata row is named %q", op, name, got)
		}
	}
}

func TestEncodedLengths(t *testing.T) {
	cases := []struct {
		op   Op
		want int
	}{
		{ADD, 1}, {LL0, 1}, {RET, 1}, {EFC0, 1},
		{LLB, 2}, {EFCB, 2}, {JB, 2}, {TRAPB, 2},
		{LIW, 3}, {JW, 3}, {SDCALL, 3},
		{DCALL, 4},
	}
	for _, c := range cases {
		if got := (Instr{Op: c.op}).Len(); got != c.want {
			t.Errorf("%s len = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestDirectCallIsFourBytes(t *testing.T) {
	// §6 D1: "The call instruction is larger: four bytes instead of one,
	// for a 24-bit program address space."
	if got := (Instr{Op: DCALL}).Len(); got != 4 {
		t.Fatalf("DCALL is %d bytes", got)
	}
	if got := (Instr{Op: SDCALL}).Len(); got != 3 {
		t.Fatalf("SDCALL is %d bytes", got)
	}
	if got := (Instr{Op: EFC0}).Len(); got != 1 {
		t.Fatalf("EFC0 is %d bytes", got)
	}
	if got := (Instr{Op: EFCB}).Len(); got != 2 {
		t.Fatalf("EFCB is %d bytes", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		op := Op(rng.Intn(int(NumOps)))
		var arg int32
		switch InfoOf(op).Operand {
		case OpdU8:
			arg = rng.Int31n(256)
		case OpdS8:
			arg = rng.Int31n(256) - 128
		case OpdU16:
			arg = rng.Int31n(1 << 16)
		case OpdS16:
			arg = rng.Int31n(1<<16) - 1<<15
		case OpdU24:
			arg = rng.Int31n(1 << 24)
		}
		in := Instr{Op: op, Arg: arg}
		buf := Append(nil, in)
		if len(buf) != in.Len() {
			t.Fatalf("%v encoded to %d bytes, want %d", in, len(buf), in.Len())
		}
		out, n, err := Decode(buf, 0)
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		if n != len(buf) || out != in {
			t.Fatalf("round trip %v -> %v (n=%d)", in, out, n)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil, 0); err == nil {
		t.Error("decode of empty code succeeded")
	}
	if _, _, err := Decode([]byte{byte(NumOps)}, 0); err == nil {
		t.Error("decode of bad opcode succeeded")
	}
	if _, _, err := Decode([]byte{byte(LIW), 1}, 0); err == nil {
		t.Error("decode of truncated LIW succeeded")
	}
	if _, _, err := Decode([]byte{byte(ADD)}, -1); err == nil {
		t.Error("decode at negative pc succeeded")
	}
}

func TestEncodeAllStream(t *testing.T) {
	prog := []Instr{{Op: LI3}, {Op: LIB, Arg: 200}, {Op: ADD}, {Op: RET}}
	buf := EncodeAll(prog)
	pc := 0
	for _, want := range prog {
		got, n, err := Decode(buf, pc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("at %d: got %v want %v", pc, got, want)
		}
		pc += n
	}
	if pc != len(buf) {
		t.Fatalf("consumed %d of %d bytes", pc, len(buf))
	}
}

func TestClassifiers(t *testing.T) {
	if !EFC3.IsCall() || !EFC3.IsExternalCall() || EFC3.IsLocalCall() {
		t.Error("EFC3 misclassified")
	}
	if !LFCB.IsCall() || !LFCB.IsLocalCall() || LFCB.IsExternalCall() {
		t.Error("LFCB misclassified")
	}
	if !DCALL.IsCall() || DCALL.IsExternalCall() {
		t.Error("DCALL misclassified")
	}
	if !JEB.IsJump() || ADD.IsJump() || RET.IsCall() {
		t.Error("jump/other misclassified")
	}
}

func TestSignedArithmetic(t *testing.T) {
	if got, ok := Div(0xFFFF, 2); !ok || got != 0 {
		// -1 / 2 == 0 in signed arithmetic
		t.Errorf("Div(-1,2) = %d,%v", got, ok)
	}
	if got, ok := Div(0xFFF6, 3); !ok || int16(got) != -3 {
		t.Errorf("Div(-10,3) = %d", int16(got))
	}
	if _, ok := Div(5, 0); ok {
		t.Error("Div by zero did not fail")
	}
	if got, ok := Mod(0xFFF6, 3); !ok || int16(got) != -1 {
		t.Errorf("Mod(-10,3) = %d", int16(got))
	}
	if got := Shr(0x8000, 1); got != 0xC000 {
		t.Errorf("arithmetic Shr(0x8000,1) = %04x", got)
	}
	if got := Neg(1); got != 0xFFFF {
		t.Errorf("Neg(1) = %04x", got)
	}
}

func TestArithmeticMatchesInt16Property(t *testing.T) {
	f := func(a, b uint16) bool {
		if Add(a, b) != uint16(int16(a)+int16(b)) {
			return false
		}
		if Sub(a, b) != uint16(int16(a)-int16(b)) {
			return false
		}
		if Mul(a, b) != uint16(int32(int16(a))*int32(int16(b))) {
			return false
		}
		if LessSigned(a, b) != (int16(a) < int16(b)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareTable(t *testing.T) {
	type c struct {
		op   Op
		a, b Word
		want bool
	}
	neg1 := Word(0xFFFF)
	for _, tc := range []c{
		{JEB, 4, 4, true}, {JEB, 4, 5, false},
		{JNEB, 4, 5, true}, {JNEB, 4, 4, false},
		{JLB, neg1, 0, true}, {JLB, 0, neg1, false},
		{JLEB, 3, 3, true}, {JLEB, 4, 3, false},
		{JGB, 0, neg1, true}, {JGB, neg1, 0, false},
		{JGEB, 3, 3, true}, {JGEB, 2, 3, false},
	} {
		if got := Compare(tc.op, tc.a, tc.b); got != tc.want {
			t.Errorf("%s(%d,%d) = %v", tc.op, int16(tc.a), int16(tc.b), got)
		}
	}
}

func TestComparePanicsOnNonComparison(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Compare(ADD, 1, 2)
}

func TestLengthStats(t *testing.T) {
	var s LengthStats
	s.Count([]Instr{{Op: LL0}, {Op: ADD}, {Op: LLB}, {Op: LIW}, {Op: DCALL}})
	if s.Total != 5 {
		t.Fatalf("Total = %d", s.Total)
	}
	if s.ByLen[1] != 2 || s.ByLen[2] != 1 || s.ByLen[3] != 1 || s.ByLen[4] != 1 {
		t.Fatalf("ByLen = %v", s.ByLen)
	}
	if s.Bytes() != 2+2+3+4 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
	if f := s.Fraction(1); f != 0.4 {
		t.Fatalf("Fraction(1) = %v", f)
	}
}
