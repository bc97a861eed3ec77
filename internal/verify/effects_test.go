package verify_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/verify"
	"repro/internal/workload"
)

func hasReasonStr(reasons []string, want verify.Reason) bool {
	for _, r := range reasons {
		if r == string(want) {
			return true
		}
	}
	return false
}

// A callee that stores through a caller-passed record pointer writes
// storage the summary analysis cannot place: record values never cross a
// call boundary, so the store falls out of the record model.
// The program stays admitted but holds neither certificate, and the write
// set is Unknown with the heap-unknown-target reason.
func TestHeapWriteThroughCallerRecordUncertified(t *testing.T) {
	w := &workload.Program{
		Name: "caller-record",
		Sources: map[string]string{"cr": `
module cr;
proc poke(p, v) { store(p, v); return 0; }
proc main(n) {
  var a = alloc(4);
  poke(a, n);
  var v = load(a);
  dealloc(a);
  return v;
}
`},
		Module: "cr", Proc: "main",
	}
	for _, early := range []bool{false, true} {
		r := verify.Program(buildWorkload(t, w, early))
		if !r.Admitted() {
			t.Fatalf("early=%v: rejected:\n%s", early, r)
		}
		if r.CertHeapEffects {
			t.Errorf("early=%v: heap certificate granted to an unplaceable store", early)
		}
		if !r.Writes.Unknown {
			t.Errorf("early=%v: write set %s, want unknown", early, r.Writes)
		}
		if r.MaxDirtyWords != -1 {
			t.Errorf("early=%v: MaxDirtyWords = %d, want -1 (vacuous bound)", early, r.MaxDirtyWords)
		}
		if !hasReasonStr(r.HeapCertReasons(), verify.ReasonHeapUnknownTarget) {
			t.Errorf("early=%v: heap reasons %v, want %s", early, r.HeapCertReasons(), verify.ReasonHeapUnknownTarget)
		}
	}
}

// A record pointer handed to a coroutine through a transfer escapes into a
// retained frame: the resumed side sees an untracked value and its store
// cannot be placed. Admitted, uncertified, unknown write set.
func TestHeapEscapeViaRetainedFrameUncertified(t *testing.T) {
	w := &workload.Program{
		Name: "retained-escape",
		Sources: map[string]string{"re": `
module re;
proc prod(start) {
  var who = retctx();
  var p = start;
  while (1) {
    store(p, 7);
    p = transfer(who, 0);
  }
}
proc main() {
  var a = alloc(4);
  var co = cocreate(prod);
  transfer(co, a);
  var v = load(a);
  dealloc(a);
  return v;
}
`},
		Module: "re", Proc: "main",
	}
	for _, early := range []bool{false, true} {
		r := verify.Program(buildWorkload(t, w, early))
		if !r.Admitted() {
			t.Fatalf("early=%v: rejected:\n%s", early, r)
		}
		if r.CertHeapEffects {
			t.Errorf("early=%v: heap certificate granted to an escaped record", early)
		}
		if !r.Writes.Unknown {
			t.Errorf("early=%v: write set %s, want unknown", early, r.Writes)
		}
		if !hasReasonStr(r.HeapCertReasons(), verify.ReasonHeapUnknownTarget) {
			t.Errorf("early=%v: heap reasons %v, want %s", early, r.HeapCertReasons(), verify.ReasonHeapUnknownTarget)
		}
	}
}

// A module-global write lands in boot-image storage: statically placed and
// bounded (the stack-bounds certificate survives), but it escapes the run,
// so the heap certificate is denied with heap-escape and the dirty bound
// is the module's global window.
func TestHeapWriteIntoBootImage(t *testing.T) {
	w := &workload.Program{
		Name: "boot-write",
		Sources: map[string]string{"bw": `
module bw;
var total = 0;
proc main(n) {
  total = total + n;
  return total;
}
`},
		Module: "bw", Proc: "main",
	}
	for _, early := range []bool{false, true} {
		r := verify.Program(buildWorkload(t, w, early))
		if !r.Admitted() {
			t.Fatalf("early=%v: rejected:\n%s", early, r)
		}
		if !r.CertStackBounds {
			t.Errorf("early=%v: global write cost the stack-bounds certificate:\n%s", early, r)
		}
		if r.CertHeapEffects {
			t.Errorf("early=%v: heap certificate granted to a boot-image write", early)
		}
		if !r.Writes.Globals || r.Writes.Unknown {
			t.Errorf("early=%v: write set %s, want globals and placed", early, r.Writes)
		}
		if r.MaxDirtyWords < 1 || r.MaxDirtyWords != r.GlobalWords {
			t.Errorf("early=%v: MaxDirtyWords = %d (GlobalWords %d), want the module's global window",
				early, r.MaxDirtyWords, r.GlobalWords)
		}
		if !hasReasonStr(r.HeapCertReasons(), verify.ReasonHeapEscape) {
			t.Errorf("early=%v: heap reasons %v, want %s", early, r.HeapCertReasons(), verify.ReasonHeapEscape)
		}
	}
}

// An armed trap handler that writes a global poisons the whole program's
// write set through the trap edge: any instruction dispatching through the
// handler can write boot-image state.
func TestTrapHandlerWritesUncertified(t *testing.T) {
	w := &workload.Program{
		Name: "trap-writes",
		Sources: map[string]string{"tw": `
module tw;
var hits = 0;
proc handler(code) { hits = hits + 1; return code; }
proc main() {
  settrap(handler);
  return trap(3);
}
`},
		Module: "tw", Proc: "main",
	}
	for _, early := range []bool{false, true} {
		r := verify.Program(buildWorkload(t, w, early))
		if !r.Admitted() {
			t.Fatalf("early=%v: rejected:\n%s", early, r)
		}
		if r.CertHeapEffects {
			t.Errorf("early=%v: heap certificate granted despite a writing trap handler", early)
		}
		if !r.Writes.Globals {
			t.Errorf("early=%v: write set %s, want globals", early, r.Writes)
		}
		if !hasReasonStr(r.HeapCertReasons(), verify.ReasonHeapEscape) {
			t.Errorf("early=%v: heap reasons %v, want %s", early, r.HeapCertReasons(), verify.ReasonHeapEscape)
		}
		h, ok := procInfo(r, "tw.handler")
		if !ok {
			t.Fatalf("early=%v: no tw.handler in report", early)
		}
		if !h.Writes.Globals {
			t.Errorf("early=%v: handler write set %s, want globals", early, h.Writes)
		}
	}
}

// chainProgram builds procs procedures chained by calls, each of them but
// the last allocating a record, storing into it, loading it back and
// freeing it. A module exposes at most 128 entry points, so the chain is
// spread over modules of 100 procedures each; main sits in the first.
func chainProgram(procs int) *workload.Program {
	const perModule = 100
	nmod := (procs + perModule - 1) / perModule
	srcs := map[string]string{}
	for m := 0; m < nmod; m++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "module m%d;\n", m)
		if m+1 < nmod {
			fmt.Fprintf(&sb, "import m%d;\n", m+1)
		}
		for i := m * perModule; i < min((m+1)*perModule, procs); i++ {
			if i == procs-1 {
				fmt.Fprintf(&sb, "proc p%d(x) { return x; }\n", i)
				continue
			}
			next := fmt.Sprintf("p%d", i+1)
			if (i+1)/perModule != m {
				next = fmt.Sprintf("m%d.p%d", m+1, i+1)
			}
			fmt.Fprintf(&sb, `proc p%d(x) {
  var a = alloc(4);
  store(a, x);
  var v = load(a);
  dealloc(a);
  return v + %s(x);
}
`, i, next)
		}
		if m == 0 {
			sb.WriteString("proc main(n) { return p0(n); }\n")
		}
		srcs[fmt.Sprintf("m%d", m)] = sb.String()
	}
	return &workload.Program{
		Name:    fmt.Sprintf("chain-%d", procs),
		Sources: srcs,
		Module:  "m0", Proc: "main", Args: []mem.Word{3},
	}
}

// Region and allocation-site indices share a 256-bit set, so value
// tracking covers the first 256 of each; past that a value merely goes
// untracked, and the rest of the program keeps its precision. The chain
// must hold both certificates at 70 procedures and at 257 (258 regions
// with main, past the cap; 256 allocation sites, at it), and run
// identically on certified and checked images. At 400 procedures it has
// more than 256 allocation sites: it stays admitted, and the stores
// through the untracked sites withhold both certificates.
func TestManyProcsCertified(t *testing.T) {
	for _, tc := range []struct {
		procs int
		cert  bool
	}{{70, true}, {257, true}, {400, false}} {
		w := chainProgram(tc.procs)
		for _, early := range []bool{false, true} {
			prog := buildWorkload(t, w, early)
			r := verify.Program(prog)
			if !r.Admitted() {
				t.Fatalf("%s early=%v: rejected:\n%s", w.Name, early, r)
			}
			if len(r.Procs) != tc.procs+1 {
				t.Fatalf("%s early=%v: %d regions, want %d", w.Name, early, len(r.Procs), tc.procs+1)
			}
			if r.CertStackBounds != tc.cert || r.CertHeapEffects != tc.cert {
				t.Errorf("%s early=%v: certificates stack=%v heap=%v, want %v:\n%s",
					w.Name, early, r.CertStackBounds, r.CertHeapEffects, tc.cert, r)
			}
			if !tc.cert {
				continue
			}
			if !r.Writes.Records || r.Writes.Unknown {
				t.Errorf("%s early=%v: write set %s, want placed records", w.Name, early, r.Writes)
			}
			for _, cfg := range []core.Config{core.ConfigMesa, core.ConfigFastCalls} {
				var got [2][]mem.Word
				var metrics [2]*core.Metrics
				for i, opts := range [][]core.LoadOption{nil, {core.WithVerify()}} {
					img, err := core.LoadImage(prog, cfg, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if img.Certified() != (i == 1) {
						t.Fatalf("%s early=%v: certified image = %v", w.Name, early, img.Certified())
					}
					m, err := img.NewMachine()
					if err != nil {
						t.Fatal(err)
					}
					if got[i], err = m.Call(img.Entry(), w.Args...); err != nil {
						t.Fatalf("%s early=%v: run: %v", w.Name, early, err)
					}
					metrics[i] = m.Metrics().Clone()
				}
				if !reflect.DeepEqual(got[0], got[1]) || !reflect.DeepEqual(metrics[0], metrics[1]) {
					t.Errorf("%s early=%v: certified run %v diverges from checked %v", w.Name, early, got[1], got[0])
				}
			}
		}
	}
}
