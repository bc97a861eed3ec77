package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/linker"
	"repro/internal/mem"
)

// linkBad links body as bad.main (plus any extra procedures) and returns
// the program with the byte offset of the marker sequence inside it, so
// tests can locate — or overwrite — a recognizable instruction run.
func linkBad(t *testing.T, marker []byte, locals int, body func(*image.Asm), extra ...*image.Proc) (*image.Program, int) {
	t.Helper()
	p := &image.Proc{Name: "main", NumLocals: locals}
	var a image.Asm
	body(&a)
	p.Body = a.Fragment()
	mod := &image.Module{Name: "bad", Procs: append([]*image.Proc{p}, extra...)}
	prog := linkOne(t, mod, "main", linker.Options{})
	i := bytes.Index(prog.Code, marker)
	if i < 0 {
		t.Fatal("marker not found in linked code")
	}
	return prog, i
}

// badImageProg links a program whose main body is the recognizable
// three-byte sequence LIB 0x5A; RET, and returns it with the byte offset
// of that sequence so tests can overwrite it with malformed encodings.
func badImageProg(t *testing.T) (*image.Program, int) {
	t.Helper()
	return linkBad(t, []byte{byte(isa.LIB), 0x5A, byte(isa.RET)}, 0, func(a *image.Asm) {
		a.Emit(isa.LIB, 0x5A)
		a.Emit(isa.RET)
	})
}

// patchJW overwrites the three bytes at i with a JW jumping to target.
func patchJW(code []byte, i, target int) {
	rel := int16(target - i)
	code[i] = byte(isa.JW)
	code[i+1] = byte(uint16(rel))
	code[i+2] = byte(uint16(rel) >> 8)
}

// callBad runs bad.main of prog on a fresh fast-calls machine.
func callBad(t *testing.T, prog *image.Program) ([]mem.Word, error) {
	t.Helper()
	m, err := New(prog, ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	return m.CallNamed("bad", "main")
}

// failsWith runs bad.main of prog and requires it to fail with exactly want.
func failsWith(t *testing.T, prog *image.Program, want string) {
	t.Helper()
	_, err := callBad(t, prog)
	if err == nil {
		t.Fatal("faulting image ran cleanly")
	}
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// TestRunErrorFidelity: when execution reaches a malformed or truncated
// encoding — or leaves the code space — the engine reports exactly the
// byte pc and error text isa.Decode produces for that pc, wrapped with
// the procedure name. Predecoding must not change what failures look
// like.
func TestRunErrorFidelity(t *testing.T) {
	decodeFails := func(t *testing.T, prog *image.Program, failPC int) {
		t.Helper()
		_, _, derr := isa.Decode(prog.Code, failPC)
		if derr == nil {
			t.Fatalf("pc %d: expected Decode to fail", failPC)
		}
		failsWith(t, prog, fmt.Sprintf("%s at pc %06x: %s", prog.ProcName(uint32(failPC)), failPC, derr))
	}

	t.Run("bad opcode", func(t *testing.T) {
		prog, i := badImageProg(t)
		prog.Code[i+2] = 0xEE // LIB executes, then dispatch hits the bad byte
		decodeFails(t, prog, i+2)
	})

	t.Run("truncated instruction", func(t *testing.T) {
		prog, i := badImageProg(t)
		end := len(prog.Code)
		prog.Code = append(prog.Code, byte(isa.JW), 0x01) // JW missing its second operand byte
		patchJW(prog.Code, i, end)
		decodeFails(t, prog, end)
	})

	t.Run("pc outside code", func(t *testing.T) {
		prog, i := badImageProg(t)
		patchJW(prog.Code, i, len(prog.Code))
		pc := len(prog.Code)
		failsWith(t, prog, fmt.Sprintf("%s at pc %06x: %s", prog.ProcName(uint32(pc)), pc,
			isa.ErrPCRange(pc, len(prog.Code))))
	})
}

// TestHandlerFaultFidelity: a fault raised by an instruction's handler (a
// stack overflow, a divide trap) is reported at the post-advance pc of the
// faulting instruction, never at a neighbour's — including a fault in the
// middle of an expression, where a pc advanced past the whole expression
// would name instructions that never executed.
func TestHandlerFaultFidelity(t *testing.T) {
	t.Run("stack overflow mid-expression", func(t *testing.T) {
		// Twelve LI1s and the first LL0 fill the stack; the second LL0's
		// push faults. The error names the faulting LL0's post-advance pc
		// (i+2): not the expression's first push, not the ADD's end.
		prog, i := linkBad(t, []byte{byte(isa.LL0), byte(isa.LL0), byte(isa.ADD)}, 1, func(a *image.Asm) {
			for j := 0; j < 12; j++ {
				a.Emit(isa.LI1)
			}
			a.Emit(isa.LL0)
			a.Emit(isa.LL0)
			a.Emit(isa.ADD)
			a.Emit(isa.RET)
		})
		pc := i + 2
		failsWith(t, prog, fmt.Sprintf("%s at pc %06x: %s: push at depth %d",
			prog.ProcName(uint32(pc)), pc, ErrStack, EvalStackDepth))
	})

	t.Run("div-zero trap", func(t *testing.T) {
		// The trap fires after DIV retired: both the trap text and the
		// wrapper report the post-advance pc (the RET's byte address, i+3).
		prog, i := linkBad(t, []byte{byte(isa.LI1), byte(isa.LI0), byte(isa.DIV)}, 0, func(a *image.Asm) {
			a.Emit(isa.LI1)
			a.Emit(isa.LI0)
			a.Emit(isa.DIV)
			a.Emit(isa.RET)
		})
		pc := i + 3
		name := prog.ProcName(uint32(pc))
		failsWith(t, prog, fmt.Sprintf("%s at pc %06x: %s: code %d at pc %06x (%s)",
			name, pc, ErrTrap, TrapDivZero, pc, name))
	})

	t.Run("div-zero resumed through an in-machine handler", func(t *testing.T) {
		// STRAP installs a handler, then 5/0 traps mid-expression: the trap
		// transfer must preserve the partial stack ([21], the word below the
		// operands) beneath the handler's result.
		handler := &image.Proc{Name: "handler", NumArgs: 1, NumLocals: 1}
		var h image.Asm
		h.Emit(isa.LL0)
		h.Emit(isa.LI2)
		h.Emit(isa.MUL)
		h.Emit(isa.RET)
		handler.Body = h.Fragment()
		prog, _ := linkBad(t, []byte{byte(isa.LIB), 5, byte(isa.LI0), byte(isa.DIV)}, 0, func(a *image.Asm) {
			a.EmitLoadLocalDesc(1)
			a.Emit(isa.STRAP)
			a.Emit(isa.LIB, 21)
			a.Emit(isa.LIB, 5)
			a.Emit(isa.LI0)
			a.Emit(isa.DIV) // 5/0 traps; handler(TrapDivZero) = 2*TrapDivZero
			a.Emit(isa.ADD) // 21 + handler result
			a.Emit(isa.RET)
		}, handler)
		res, err := callBad(t, prog)
		if err != nil {
			t.Fatalf("handled trap failed the run: %v", err)
		}
		if want := []mem.Word{21 + 2*TrapDivZero}; !reflect.DeepEqual(res, want) {
			t.Fatalf("results = %v, want %v", res, want)
		}
	})
}

// stackFaultCase is one row of TestStackFaultFidelity: op runs with depth
// operands on the stack and must fault in push (full stack) or pop.
type stackFaultCase struct {
	op    isa.Op
	arg   int32
	depth int
	push  bool      // push fault at depth EvalStackDepth; pop fault otherwise
	refs  [3]uint64 // refs op charges before faulting: mesa, fastfetch, fastcalls
	local uint64    // LocalVarRefs op counts before faulting
	glob  uint64    // GlobalVarRefs
	ptr   uint64    // PointerRefs
}

// stackFaultCases lists every opcode whose handler calls push, pop or
// pop2, read off the opcode metadata's stack effect: an empty stack for an
// opcode that pops, one operand for one that pops two, and a full stack
// for one that pushes more than it pops. XFERO and TRAPB declare a
// variable effect: XFERO pops its context, and TRAPB, resolved by a Go
// trap hook, pushes the default result.
func stackFaultCases() []stackFaultCase {
	var cases []stackFaultCase
	for op := isa.Op(0); op < isa.NumOps; op++ {
		info := isa.InfoOf(op)
		pops, pushes := int(info.Pops), int(info.Pushes)
		switch op {
		case isa.XFERO:
			pops, pushes = 1, 0
		case isa.TRAPB:
			pops, pushes = 0, 1
		}
		c := stackFaultCase{op: op}
		switch {
		case op >= isa.LL0 && op <= isa.SLB:
			c.local = 1
		case op >= isa.LG0 && op <= isa.SGB:
			c.glob = 1
		case op >= isa.LDIND && op <= isa.WFB:
			c.ptr = 1
		}
		switch op {
		case isa.LLB, isa.SLB:
			c.arg = 8
		case isa.LGB, isa.SGB, isa.TRAPB:
			c.arg = 4
		case isa.RFB, isa.WFB:
			c.arg = 1
		}
		if pops >= 1 {
			cases = append(cases, c)
		}
		if pops == 2 {
			one := c
			one.depth = 1
			cases = append(cases, one)
		}
		if pushes > pops {
			full := c
			full.depth = EvalStackDepth
			full.push = true
			switch {
			case op >= isa.LL0 && op <= isa.LL7, op == isa.LLB:
				full.refs = [3]uint64{1, 1, 0} // the local: a storage read, or a bank hit
			case op >= isa.LG0 && op <= isa.LGB:
				full.refs = [3]uint64{1, 1, 1}
			case op == isa.LAB:
				// The header flag's read and write; fastcalls first flushes
				// the frame's bank, whose two linkage words are dirty.
				full.refs = [3]uint64{2, 2, 4}
			case op == isa.AFB:
				// Class 0's free list starts empty, so the frame comes from
				// a replenish.
				full.refs = [3]uint64{20, 20, 20}
			}
			cases = append(cases, full)
		}
	}
	return cases
}

// TestStackFaultFidelity pins every evaluation-stack fault a handler can
// raise: on each configuration, the run fails at the faulting
// instruction's post-advance pc with the exact fault text, and SP, the
// output record and the reference counters show precisely the work done
// before the fault.
func TestStackFaultFidelity(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  Config
	}{{"mesa", ConfigMesa}, {"fastfetch", ConfigFastFetch}, {"fastcalls", ConfigFastCalls}}
	for _, c := range stackFaultCases() {
		name := fmt.Sprintf("%s/depth%d", c.op, c.depth)
		t.Run(name, func(t *testing.T) {
			// LIB 7; OUT marks the body and leaves [7] in the output record.
			prog, i := linkBad(t, []byte{byte(isa.LIB), 7, byte(isa.OUT)}, 9, func(a *image.Asm) {
				a.Emit(isa.LIB, 7)
				a.Emit(isa.OUT)
				for j := 0; j < c.depth; j++ {
					a.Emit(isa.LI1)
				}
				if c.op.IsJump() {
					l := a.NewLabel()
					a.EmitJump(c.op, l)
					a.Bind(l)
				} else if isa.InfoOf(c.op).Operand == isa.OpdNone {
					a.Emit(c.op)
				} else {
					a.Emit(c.op, c.arg)
				}
				a.Emit(isa.RET)
			})
			pc := i + 3 + c.depth + isa.InfoOf(c.op).Len()
			fault, sp := "pop of empty stack", 0
			if c.push {
				fault, sp = fmt.Sprintf("push at depth %d", EvalStackDepth), EvalStackDepth
			}
			want := fmt.Sprintf("%s at pc %06x: %s: %s", prog.ProcName(uint32(pc)), pc, ErrStack, fault)
			desc, err := prog.FindProc("bad", "main")
			if err != nil {
				t.Fatal(err)
			}
			for k, cf := range cfgs {
				cfg := cf.cfg
				cfg.Trap = func(*Machine, int) error { return nil } // TRAPB resumes with its default result
				m, err := New(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Start(desc); err != nil {
					t.Fatal(err)
				}
				base := m.Metrics().ChargedRefs
				err = m.Run()
				if err == nil || err.Error() != want {
					t.Fatalf("%s: error = %v, want %q", cf.name, err, want)
				}
				mt := m.Metrics()
				got := [...]uint64{uint64(m.SP()), mt.Instructions, mt.LocalVarRefs, mt.GlobalVarRefs, mt.PointerRefs, mt.ChargedRefs - base}
				exp := [...]uint64{uint64(sp), uint64(3 + c.depth), c.local, c.glob, c.ptr, c.refs[k]}
				if got != exp {
					t.Errorf("%s: sp, instructions, local, global, pointer, refs = %v, want %v", cf.name, got, exp)
				}
				if !reflect.DeepEqual(m.Output, []mem.Word{7}) {
					t.Errorf("%s: output = %v, want [7]", cf.name, m.Output)
				}
			}
		})
	}
}
