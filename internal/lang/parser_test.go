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
