package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// The pass must be clean on the tree it ships in.
func TestRepoClean(t *testing.T) {
	diags, err := Check("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// --- synthetic negatives: hand analyze small packages and check it bites ---

func parse(t *testing.T, fset *token.FileSet, name, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// isaSrc builds a miniature isa package with three opcodes. infos lists
// the given entries verbatim.
func isaSrc(infos string) string {
	return `package isa
type Op byte
const (
	NOOP Op = iota
	HALT
	ADD
	NumOps
)
type Info struct{ Name string }
var infos = [NumOps]Info{` + infos + `}
`
}

// coreSrc builds a miniature core package: Run/Step retire one unit each,
// and init registers the given handlers.
func coreSrc(initBody, extra string) string {
	return `package core
import "repro/internal/isa"
type Machine struct{ metrics struct{ Instructions uint64 } }
type handlerFunc func(*Machine) error
var handlers [3]handlerFunc
func h(m *Machine) error { return nil }
func (m *Machine) Run()  { m.metrics.Instructions++ }
func (m *Machine) Step() { m.metrics.Instructions++ }
func init() {
` + initBody + `
}
` + extra + `
`
}

func run(t *testing.T, isaFile, coreFile string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	ia := parse(t, fset, "isa.go", isaFile)
	co := parse(t, fset, "core.go", coreFile)
	return analyze(fset, []*ast.File{ia}, []*ast.File{co})
}

func wantDiag(t *testing.T, diags []Diagnostic, substr string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Msg, substr) {
			return
		}
	}
	t.Errorf("no diagnostic containing %q; got %v", substr, diags)
}

func wantClean(t *testing.T, diags []Diagnostic) {
	t.Helper()
	if len(diags) != 0 {
		t.Errorf("want clean, got %v", diags)
	}
}

const goodInfos = `NOOP: {Name: "NOOP"}, HALT: {Name: "HALT"}, ADD: {Name: "ADD"},`

const goodInit = `	one := func(f handlerFunc, op isa.Op) { handlers[op] = f }
	set := func(f handlerFunc, lo, hi isa.Op) {
		for op := lo; op <= hi; op++ {
			handlers[op] = f
		}
	}
	one(h, isa.NOOP)
	set(h, isa.HALT, isa.ADD)`

func TestSyntheticClean(t *testing.T) {
	wantClean(t, run(t, isaSrc(goodInfos), coreSrc(goodInit, "")))
}

func TestMissingInfosEntry(t *testing.T) {
	diags := run(t, isaSrc(`NOOP: {Name: "NOOP"}, ADD: {Name: "ADD"},`), coreSrc(goodInit, ""))
	wantDiag(t, diags, "HALT has no infos entry")
}

func TestInfosNameMismatch(t *testing.T) {
	diags := run(t, isaSrc(`NOOP: {Name: "NOOP"}, HALT: {Name: "STOP"}, ADD: {Name: "ADD"},`), coreSrc(goodInit, ""))
	wantDiag(t, diags, `infos[HALT].Name is "STOP"`)
}

func TestMissingHandler(t *testing.T) {
	init := `	one := func(f handlerFunc, op isa.Op) { handlers[op] = f }
	one(h, isa.NOOP)
	one(h, isa.ADD)`
	wantDiag(t, run(t, isaSrc(goodInfos), coreSrc(init, "")), "HALT has no handler")
}

func TestOverlappingHandlerRanges(t *testing.T) {
	init := goodInit + "\n\tone(h, isa.ADD)"
	wantDiag(t, run(t, isaSrc(goodInfos), coreSrc(init, "")), "ADD is registered 2 times")
}

func TestDirectRegistration(t *testing.T) {
	init := `	one := func(f handlerFunc, op isa.Op) { handlers[op] = f }
	one(h, isa.NOOP)
	one(h, isa.HALT)
	handlers[isa.ADD] = h`
	wantClean(t, run(t, isaSrc(goodInfos), coreSrc(init, "")))
}

func TestHandlerRetiringTwice(t *testing.T) {
	extra := `func hBad(m *Machine) error { m.metrics.Instructions++; return nil }`
	diags := run(t, isaSrc(goodInfos), coreSrc(goodInit, extra))
	wantDiag(t, diags, "hBad advances the retired-instruction counter")
}

func TestDispatchSiteMissingRetire(t *testing.T) {
	core := `package core
import "repro/internal/isa"
type Machine struct{ metrics struct{ Instructions uint64 } }
type handlerFunc func(*Machine) error
var handlers [3]handlerFunc
func h(m *Machine) error { return nil }
func (m *Machine) Run()  { m.metrics.Instructions++ }
func (m *Machine) Step() {}
func init() {
	one := func(f handlerFunc, op isa.Op) { handlers[op] = f }
	one(h, isa.NOOP)
	one(h, isa.HALT)
	one(h, isa.ADD)
}
`
	wantDiag(t, run(t, isaSrc(goodInfos), core), "dispatch site Step never advances")
}

func TestCounterAssignmentRejected(t *testing.T) {
	extra := `func reset(m *Machine) { m.metrics.Instructions = 0 }`
	diags := run(t, isaSrc(goodInfos), coreSrc(goodInit, extra))
	wantDiag(t, diags, "reset assigns to the retired-instruction counter")
}

func TestCompoundRetireInRunRejected(t *testing.T) {
	// Run is a dispatch site: it may advance the counter only by ++, never
	// by a batched add.
	core := strings.Replace(coreSrc(goodInit, ""),
		"func (m *Machine) Run()  { m.metrics.Instructions++ }",
		"func (m *Machine) Run()  { m.metrics.Instructions += 2 }", 1)
	diags := run(t, isaSrc(goodInfos), core)
	wantDiag(t, diags, "Run assigns to the retired-instruction counter")
}
