package fpc_test

import (
	"fmt"
	"log"
	"strings"
	"testing"

	fpc "repro"
)

const fibSrc = `
module fib;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc main(n) { return fib(n); }
`

func TestBuildAndRunFacade(t *testing.T) {
	prog, err := fpc.Build(map[string]string{"fib": fibSrc}, "fib", "main", fpc.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []fpc.Config{fpc.ConfigMesa, fpc.ConfigFastFetch, fpc.ConfigFastCalls} {
		m, err := fpc.NewMachine(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Call(prog.Entry, 12)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0] != 144 {
			t.Fatalf("fib(12) = %v", res)
		}
	}
}

// TestBuildRejectsOversizedSource: the frontend refuses a source past its
// size cap before lexing it, naming the module and both sizes. The source
// is a 400 KB main returning 1+1+...+1 over 200,000 terms: it nests one
// tree level per operator yet stays far under the nesting cap, so only the
// size cap stops it.
func TestBuildRejectsOversizedSource(t *testing.T) {
	src := "module chain;\nproc main() { return 1" + strings.Repeat("+1", 199_999) + "; }\n"
	_, err := fpc.Build(map[string]string{"chain": src}, "chain", "main", fpc.LinkOptions{})
	if err == nil {
		t.Fatal("a 400 KB source built")
	}
	for _, want := range []string{"chain", fmt.Sprint(len(src)), "65536"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestRunOneShot(t *testing.T) {
	res, met, err := fpc.Run(map[string]string{"fib": fibSrc}, "fib", "main", fpc.ConfigFastCalls, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 55 {
		t.Fatalf("fib(10) = %v", res)
	}
	if met.Instructions == 0 || met.Cycles == 0 {
		t.Fatalf("metrics empty: %+v", met)
	}
}

func TestReferenceAgreesWithMachine(t *testing.T) {
	sources := map[string]string{"fib": fibSrc}
	ref, _, err := fpc.Reference(sources, "fib", "main", 13)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := fpc.Run(sources, "fib", "main", fpc.ConfigMesa, 13)
	if err != nil {
		t.Fatal(err)
	}
	if ref[0] != got[0] {
		t.Fatalf("I1 %v vs machine %v", ref, got)
	}
}

func TestHeadlineClaim(t *testing.T) {
	// The paper's abstract: calls and returns "as fast as unconditional
	// jumps at least 95% of the time" with the full mechanism.
	prog, err := fpc.Build(map[string]string{"fib": fibSrc}, "fib", "main",
		fpc.LinkOptions{EarlyBind: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := fpc.NewMachine(prog, fpc.ConfigFastCalls)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(prog.Entry, 18); err != nil {
		t.Fatal(err)
	}
	if f := m.Metrics().FastFraction(); f < 0.95 {
		t.Fatalf("jump-fast fraction %.3f < 0.95", f)
	}
}

func TestCompileErrorSurfaces(t *testing.T) {
	_, err := fpc.Build(map[string]string{"bad": `module bad; proc main() { return x; }`},
		"bad", "main", fpc.LinkOptions{})
	if err == nil {
		t.Fatal("expected a compile error")
	}
}

func ExampleBuild() {
	prog, err := fpc.Build(map[string]string{"hello": `
module hello;
proc double(x) { return x * 2; }
proc main(n) { return double(n) + 1; }
`}, "hello", "main", fpc.LinkOptions{EarlyBind: true})
	if err != nil {
		log.Fatal(err)
	}
	m, err := fpc.NewMachine(prog, fpc.ConfigFastCalls)
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.Call(prog.Entry, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res[0])
	// Output: 41
}

func ExampleReference() {
	res, out, err := fpc.Reference(map[string]string{"m": `
module m;
proc main() { out(7); return 42; }
`}, "m", "main")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res[0], out[0])
	// Output: 42 7
}

// TestRunMetricsOnError: Run/RunLinked must not discard the work a failed
// call did — the machine's metrics come back alongside the error, matching
// Pool's "failed runs are still accounted" semantics.
func TestRunMetricsOnError(t *testing.T) {
	loop := map[string]string{"m": `
module m;
proc main() {
  var i = 0;
  while (1) { i = i + 1; }
  return i;
}
`}
	cfg := fpc.ConfigFastCalls
	cfg.MaxSteps = 10_000
	res, met, err := fpc.Run(loop, "m", "main", cfg)
	if err == nil {
		t.Fatal("infinite loop terminated")
	}
	if res != nil {
		t.Fatalf("results %v from a failed run", res)
	}
	if met == nil {
		t.Fatal("failed run discarded its metrics")
	}
	if met.Instructions != 10_000 {
		t.Fatalf("metrics account %d instructions, want 10000", met.Instructions)
	}

	// A trapping run (divide by zero, no handler) is accounted too.
	div := map[string]string{"m": `
module m;
proc main(n) { return 100 / n; }
`}
	_, met, err = fpc.Run(div, "m", "main", fpc.ConfigFastCalls, 0)
	if err == nil {
		t.Fatal("division by zero succeeded")
	}
	if met == nil || met.Instructions == 0 {
		t.Fatalf("trapped run discarded its metrics: %+v", met)
	}
}
