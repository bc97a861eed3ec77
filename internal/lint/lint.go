// Package lint is the repo's own static-analysis pass, in the style of a
// go/analysis analyzer but built on the standard library alone (go/ast,
// go/parser), since the tree must build with no external modules. It
// checks three invariants that the compiler cannot:
//
//  1. Every isa opcode (NOOP..STRAP, everything before NumOps) has exactly
//     one entry in the isa metadata table (the `infos` composite literal),
//     and the entry's Name string matches the opcode identifier. A missing
//     entry would give the opcode a zero Info — decode would treat it as a
//     zero-length instruction with an empty name.
//  2. Every opcode acquires exactly one handler in core's dispatch table
//     (`handlers`), the one table Run and Step index for every image. Registrations happen in init through the
//     set(f, lo, hi) / one(f, op) helpers and direct handlers[isa.X] = f
//     assignments; the pass simulates them against the opcode numbering
//     recovered from the isa const block. An uncovered opcode would be a
//     nil handler — a crash on first dispatch; a doubly-covered one means
//     a range overlap silently shadowing a handler.
//  3. Every handler retires exactly one instruction-count unit: the
//     m.metrics.Instructions counter is advanced only at the two dispatch
//     sites (Run's inner loop and Step), once each, and never inside a
//     handler — a handler that bumped it would double-charge the step
//     budget for its opcode.
//
// Invariant numbers are stable; 4 (the superinstruction tables) and 5
// (the heap-effect column) were retired with what they policed.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos string // "file:line"
	Msg string
}

func (d Diagnostic) String() string { return d.Pos + ": " + d.Msg }

// Check parses the isa and core packages under root and runs the pass.
func Check(root string) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	isaFiles, err := parseDir(fset, filepath.Join(root, "internal", "isa"))
	if err != nil {
		return nil, err
	}
	coreFiles, err := parseDir(fset, filepath.Join(root, "internal", "core"))
	if err != nil {
		return nil, err
	}
	return analyze(fset, isaFiles, coreFiles), nil
}

// parseDir parses every non-test .go file in dir.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return files, nil
}

// analyze runs all three checks. It is the testable core: synthetic
// negative cases hand it small parsed files directly.
func analyze(fset *token.FileSet, isaFiles, coreFiles []*ast.File) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		diags = append(diags, Diagnostic{
			Pos: fmt.Sprintf("%s:%d", p.Filename, p.Line),
			Msg: fmt.Sprintf(format, args...),
		})
	}

	ops, opPos := opcodeConsts(isaFiles, report)
	if ops != nil {
		checkInfos(isaFiles, ops, opPos, report)
		checkHandlers(coreFiles, ops, opPos, report)
	}
	checkRetirement(coreFiles, report)
	return diags
}

// opcodeConsts recovers the opcode numbering from the isa const block: the
// iota-based constant declaration of type Op. It returns the ordered
// opcode names (value = index) excluding the NumOps sentinel, which must
// be the block's final name.
func opcodeConsts(isaFiles []*ast.File, report func(token.Pos, string, ...any)) ([]string, map[string]token.Pos) {
	for _, f := range isaFiles {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
				continue
			}
			first, ok := gd.Specs[0].(*ast.ValueSpec)
			if !ok || !isIdent(first.Type, "Op") {
				continue
			}
			var names []string
			pos := map[string]token.Pos{}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, n := range vs.Names {
					names = append(names, n.Name)
					pos[n.Name] = n.Pos()
				}
			}
			if len(names) < 2 || names[len(names)-1] != "NumOps" {
				report(gd.Pos(), "opcode const block must end with the NumOps sentinel")
				return nil, nil
			}
			return names[:len(names)-1], pos
		}
	}
	report(token.NoPos, "no iota const block of type Op found in package isa")
	return nil, nil
}

// checkInfos verifies the `infos` composite literal covers every opcode
// exactly once with a matching Name string.
func checkInfos(isaFiles []*ast.File, ops []string, opPos map[string]token.Pos, report func(token.Pos, string, ...any)) {
	lit := findVarLiteral(isaFiles, "infos")
	if lit == nil {
		report(token.NoPos, "no `var infos = [NumOps]Info{...}` literal found in package isa")
		return
	}
	opSet := map[string]bool{}
	for _, op := range ops {
		opSet[op] = true
	}
	seen := map[string]int{}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			report(elt.Pos(), "infos entry without an opcode key")
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			report(kv.Pos(), "infos key is not an opcode identifier")
			continue
		}
		if !opSet[key.Name] {
			report(kv.Pos(), "infos key %s is not a defined opcode", key.Name)
			continue
		}
		seen[key.Name]++
		if name := fieldString(kv.Value, "Name"); name != "" && name != key.Name {
			report(kv.Pos(), "infos[%s].Name is %q; table name must match the opcode", key.Name, name)
		}
	}
	for _, op := range ops {
		switch seen[op] {
		case 1:
		case 0:
			report(opPos[op], "opcode %s has no infos entry (would decode as a nameless zero-length instruction)", op)
		default:
			report(opPos[op], "opcode %s has %d infos entries, want exactly 1", op, seen[op])
		}
	}
}

// checkHandlers simulates the dispatch-table registrations in core's init
// functions and verifies each opcode lands exactly one handler.
func checkHandlers(coreFiles []*ast.File, ops []string, opPos map[string]token.Pos, report func(token.Pos, string, ...any)) {
	opVal := map[string]int{}
	for i, op := range ops {
		opVal[op] = i
	}
	counts := make([]int, len(ops))
	found := false
	for _, f := range coreFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "init" || fd.Recv != nil || fd.Body == nil {
				continue
			}
			if simulateInit(fd.Body, opVal, counts, report) {
				found = true
			}
		}
	}
	if !found {
		return // package under test has no handler-table init; nothing to check
	}
	for i, op := range ops {
		switch counts[i] {
		case 1:
		case 0:
			report(opPos[op], "opcode %s has no handler in core's dispatch table (nil entry: crash on first dispatch)", op)
		default:
			report(opPos[op], "opcode %s is registered %d times in core's dispatch table, want exactly 1", op, counts[i])
		}
	}
}

// registrar describes a local closure that writes into `handlers`: which
// of its parameters name opcodes. One op param (one) registers a single
// opcode; two (set) register the inclusive range between them.
type registrar struct{ opParams int }

// simulateInit walks one init body. It reports whether the body touched
// the `handlers` table at all.
func simulateInit(body *ast.BlockStmt, opVal map[string]int, counts []int, report func(token.Pos, string, ...any)) bool {
	touched := false
	regs := map[string]registrar{}
	resolve := func(e ast.Expr) (int, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || !isIdent(sel.X, "isa") {
			return 0, false
		}
		v, ok := opVal[sel.Sel.Name]
		return v, ok
	}
	add := func(pos token.Pos, lo, hi int) {
		if lo > hi {
			report(pos, "handler registration range is inverted")
			return
		}
		for v := lo; v <= hi; v++ {
			counts[v]++
		}
	}
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			// A closure registrar: name := func(...) { ... handlers[...] = ... }
			if name, ok := as.Lhs[0].(*ast.Ident); ok {
				if fl, ok := as.Rhs[0].(*ast.FuncLit); ok && writesHandlers(fl.Body) {
					n := 0
					for _, fld := range fl.Type.Params.List {
						if isSelector(fld.Type, "isa", "Op") || isIdent(fld.Type, "Op") {
							n += len(fld.Names)
						}
					}
					if n == 1 || n == 2 {
						regs[name.Name] = registrar{opParams: n}
						touched = true
					}
					continue
				}
			}
			// A direct registration: handlers[isa.X] = f
			if ix, ok := as.Lhs[0].(*ast.IndexExpr); ok && isIdent(ix.X, "handlers") {
				touched = true
				if v, ok := resolve(ix.Index); ok {
					add(as.Pos(), v, v)
				} else {
					report(as.Pos(), "handlers index is not a constant isa opcode; the pass cannot prove coverage")
				}
				continue
			}
		}
		// A registrar call: one(f, isa.X) or set(f, isa.LO, isa.HI).
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok {
			continue
		}
		reg, ok := regs[fn.Name]
		if !ok {
			continue
		}
		var vals []int
		bad := false
		for _, arg := range call.Args[len(call.Args)-reg.opParams:] {
			v, ok := resolve(arg)
			if !ok {
				bad = true
				break
			}
			vals = append(vals, v)
		}
		if bad || len(vals) != reg.opParams {
			report(call.Pos(), "%s argument is not a constant isa opcode; the pass cannot prove coverage", fn.Name)
			continue
		}
		if reg.opParams == 1 {
			add(call.Pos(), vals[0], vals[0])
		} else {
			add(call.Pos(), vals[0], vals[1])
		}
	}
	return touched
}

// writesHandlers reports whether a closure body assigns into `handlers`.
func writesHandlers(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok && isIdent(ix.X, "handlers") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// checkRetirement enforces invariant 3: the `.metrics.Instructions`
// counter is advanced by ++ exactly once each in Run and Step and is
// never written anywhere else in package core. (Metrics.Merge sums
// m.Instructions on a Metrics receiver — a different selector chain —
// and stays exempt without a special case.)
func checkRetirement(coreFiles []*ast.File, report func(token.Pos, string, ...any)) {
	perFunc := map[string]int{}
	var order []string
	for _, f := range coreFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.IncDecStmt:
					if isMetricsInstructions(st.X) {
						if st.Tok != token.INC {
							report(st.Pos(), "%s decrements the retired-instruction counter", name)
							return true
						}
						if perFunc[name] == 0 {
							order = append(order, name)
						}
						perFunc[name]++
					}
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						if isMetricsInstructions(lhs) {
							report(st.Pos(), "%s assigns to the retired-instruction counter; only the dispatch sites may advance it, by ++", name)
						}
					}
				}
				return true
			})
		}
	}
	want := map[string]bool{"Run": true, "Step": true}
	for _, name := range order {
		if !want[name] {
			report(token.NoPos, "%s advances the retired-instruction counter; only the dispatch sites (Run, Step) retire instructions — a handler doing it double-charges its opcode", name)
		} else if perFunc[name] != 1 {
			report(token.NoPos, "%s advances the retired-instruction counter %d times, want exactly 1", name, perFunc[name])
		}
	}
	var missing []string
	for name := range want {
		if perFunc[name] == 0 {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		report(token.NoPos, "dispatch site %s never advances the retired-instruction counter", name)
	}
}

// isMetricsInstructions matches the selector chain <expr>.metrics.Instructions.
func isMetricsInstructions(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Instructions" {
		return false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	return ok && inner.Sel.Name == "metrics"
}

// findVarLiteral locates `var <name> = ...{...}` and returns the literal.
func findVarLiteral(files []*ast.File, name string) *ast.CompositeLit {
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != name || len(vs.Values) != 1 {
					continue
				}
				if cl, ok := vs.Values[0].(*ast.CompositeLit); ok {
					return cl
				}
			}
		}
	}
	return nil
}

// fieldString extracts a string-literal struct field (Name: "LL0") from a
// composite literal; "" when absent or not a literal.
func fieldString(e ast.Expr, field string) string {
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return ""
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok || !isIdent(kv.Key, field) {
			continue
		}
		if bl, ok := kv.Value.(*ast.BasicLit); ok && bl.Kind == token.STRING {
			if s, err := strconv.Unquote(bl.Value); err == nil {
				return s
			}
		}
	}
	return ""
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isSelector(e ast.Expr, x, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	return ok && s.Sel.Name == sel && isIdent(s.X, x)
}
