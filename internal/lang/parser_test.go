package lang

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestNestingLimit: sources nested 20,000 levels deep, 40 KB of
// parentheses or 20 KB of unary minuses (both under maxSourceBytes), fail
// fast with a located error instead of recursing once per level through
// the whole build.
func TestNestingLimit(t *testing.T) {
	const prefix = "module deep; proc main() { return "
	const n = 20_000
	// The procedure body is one level and the returned expression a second,
	// so the error falls on the first token that opens level maxNesting+1.
	cases := []struct {
		name string
		src  string
		col  int
	}{
		{"parentheses", prefix + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }", len(prefix) + maxNesting},
		{"unary minus", prefix + strings.Repeat("-", n) + "1; }", len(prefix) + maxNesting - 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := CompileAll(map[string]string{"deep": c.src})
			var lerr *Error
			if !errors.As(err, &lerr) {
				t.Fatalf("error = %v, want a *lang.Error", err)
			}
			want := Error{Module: "deep", Line: 1, Col: c.col, Msg: fmt.Sprintf("nesting deeper than %d levels", maxNesting)}
			if *lerr != want {
				t.Fatalf("error = %+v, want %+v", *lerr, want)
			}
		})
	}
}

// TestSourceSizeLimit: a module over maxSourceBytes fails before lexing,
// and so does a submission whose modules are each under the cap but add
// up to more than it.
func TestSourceSizeLimit(t *testing.T) {
	module := func(name string, bytes int) string {
		src := "module " + name + "; proc main() { return 0; }\n"
		return src + strings.Repeat(" ", bytes-len(src))
	}
	if _, err := Parse("big", module("big", maxSourceBytes)); err != nil {
		t.Fatalf("source at the cap: %v", err)
	}
	_, err := Parse("big", module("big", maxSourceBytes+1))
	want := fmt.Sprintf("lang: module big: source is %d bytes, over the %d-byte limit", maxSourceBytes+1, maxSourceBytes)
	if err == nil || err.Error() != want {
		t.Fatalf("Parse over the cap: error %v, want %q", err, want)
	}
	half := maxSourceBytes/2 + 1
	sources := map[string]string{"a": module("a", half), "b": module("b", half)}
	want = fmt.Sprintf("lang: sources add up to %d bytes, over the %d-byte limit (largest: module a, %d bytes)",
		2*half, maxSourceBytes, half)
	if _, err := CompileAll(sources); err == nil || err.Error() != want {
		t.Errorf("CompileAll: error %v, want %q", err, want)
	}
	if _, err := ParseAll(sources); err == nil || err.Error() != want {
		t.Errorf("ParseAll: error %v, want %q", err, want)
	}
}

// TestErrorTexts pins the error a malformed source gets. The parser pulls
// its tokens, yet the source's first lex error still wins over a parse
// error that comes before it, as when the whole source was lexed first. A
// lex error names the module Parse was called with; a parse error names
// the declared one. The texts were taken from the parser that lexed
// everything before parsing.
func TestErrorTexts(t *testing.T) {
	deep := maxNesting + 5
	cases := []struct {
		name, module, src, want string
	}{
		{"lex error after a syntax error", "m",
			"module m;\nproc f() { return 1 + ; }\nvar x = 1 $ 2;\n",
			`m:3:12: unexpected character "$"`},
		{"bad character in the assignment lookahead", "m",
			"module m;\nproc f() { a, b $ = 1; }\n",
			`m:2:18: unexpected character "$"`},
		{"lookahead fails on a, b;", "m",
			"module m;\nproc f() { var a, b; a, b; }\n",
			`m:2:23: expected ;, found ","`},
		{"nesting past the cap, then a bad character", "m",
			"module m;\nproc f() { return " + strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep) + "; }\n#\n",
			`m:3:2: unexpected character "#"`},
		{"unterminated comment after a parse error", "m",
			"module m;\nproc f() { return ; }\nproc }\n/* never closed",
			"m:4:15: unterminated comment"},
		{"lex error names the caller's module", "caller",
			"module declared;\nproc f() { return 0x; }\n",
			`caller:2:21: malformed hex literal "0x"`},
		{"parse error names the declared module", "caller",
			"module declared;\nproc f() { return 1 }\n",
			`declared:2:21: expected ;, found "}"`},
		{"parse error only", "m",
			"module m;\nproc f( { }\n",
			`m:2:9: expected identifier, found "{"`},
		{"literal over 16 bits after a parse error", "m",
			"module m;\nvar ;\nvar y = 70000;\n",
			`m:3:14: literal "70000" exceeds 16 bits`},
		{"lex error in the header", "m",
			"module @;\n",
			`m:1:9: unexpected character "@"`},
		{"lex error after a clean module", "m",
			"module m;\nproc f() { return 1; }\n$",
			`m:3:2: unexpected character "$"`},
		{"nesting past the cap alone", "m",
			"module m;\nproc f() { return " + strings.Repeat("-", deep) + "1; }\n",
			"m:2:1017: nesting deeper than 1000 levels"},
		{"lex error after a declared header", "caller",
			"module declared;\nvar x = 1;\nproc f() { x = x ? 1; }\n",
			`caller:3:19: unexpected character "?"`},
		{"bad character after an assignment target list", "m",
			"module m;\nproc f() { var a, b; a, b = 1, 2 ` 3; }\n",
			"m:2:35: unexpected character \"`\""},
		{"unterminated block", "m",
			"module m;\nproc f() { a = 1;\n",
			"m:3:1: unterminated block"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.module, c.src)
			if err == nil || err.Error() != c.want {
				t.Fatalf("error %v, want %q", err, c.want)
			}
		})
	}
}
