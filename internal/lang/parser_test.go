package lang

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestNestingLimit: sources nested 200,000 levels deep, 400 KB of
// parentheses or 200 KB of unary minuses, fail fast with a located error
// instead of recursing once per level through the whole build.
func TestNestingLimit(t *testing.T) {
	const prefix = "module deep; proc main() { return "
	const n = 200_000
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
