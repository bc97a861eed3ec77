package xfer

import (
	"errors"
	"testing"
	"time"
)

func TestSimpleCallReturn(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	double := &ProcDesc{Name: "double", Code: func(fr *Frame, args []Value) []Value {
		return []Value{args[0] * 2}
	}}
	res, err := s.Call(double, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != 42 {
		t.Fatalf("res = %v", res)
	}
	st := s.Stats()
	if st.Calls != 1 || st.Returns != 1 || st.Live != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNestedCallsAndRecursion(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	var fib *ProcDesc
	fib = &ProcDesc{Name: "fib", Code: func(fr *Frame, args []Value) []Value {
		n := args[0]
		if n < 2 {
			return []Value{n}
		}
		a := fr.Call(fib, n-1)
		b := fr.Call(fib, n-2)
		return []Value{a[0] + b[0]}
	}}
	res, err := s.Call(fib, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 610 {
		t.Fatalf("fib(15) = %d", res[0])
	}
	if live := s.Stats().Live; live != 0 {
		t.Fatalf("leaked %d frames", live)
	}
}

func TestArgumentsAndResultsSymmetric(t *testing.T) {
	// F4: arguments and results are both just the argument record.
	s := NewSystem()
	defer s.Shutdown()
	swap := &ProcDesc{Name: "swap", Code: func(fr *Frame, args []Value) []Value {
		return []Value{args[1], args[0]}
	}}
	res, err := s.Call(swap, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 2 || res[1] != 1 {
		t.Fatalf("res = %v", res)
	}
}

func TestCoroutinePingPong(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	// Producer yields successive integers to whoever transferred to it.
	producer := &ProcDesc{Name: "producer", Code: func(fr *Frame, args []Value) []Value {
		consumer := fr.ReturnLink
		v := Value(0)
		for {
			rec := fr.Transfer(consumer, v)
			v += rec[0] // consumer sends back an increment
		}
	}}
	main := &ProcDesc{Name: "main", Code: func(fr *Frame, args []Value) []Value {
		prod := fr.sys.NewFrame(producer)
		defer prod.Free()
		var got []Value
		sum := Value(0)
		inc := Value(1)
		for i := 0; i < 5; i++ {
			got = fr.Transfer(prod, inc)
			sum += got[0]
			inc++
		}
		return []Value{sum}
	}}
	res, err := s.Call(main)
	if err != nil {
		t.Fatal(err)
	}
	// producer yields 0,2,5,9,14 -> sum 30
	if res[0] != 30 {
		t.Fatalf("sum = %d, want 30", res[0])
	}
}

func TestDestinationDecidesDiscipline(t *testing.T) {
	// F3: the same XFER serves call and coroutine transfer; the destination
	// context chooses. A frame resumed by Call behaves as a coroutine.
	s := NewSystem()
	defer s.Shutdown()
	echoTwice := &ProcDesc{Name: "echoTwice", Code: func(fr *Frame, args []Value) []Value {
		first := args[0]
		rec := fr.Transfer(fr.ReturnLink, first+100) // acts like a yield
		return []Value{rec[0] + 1000}                // then a normal return
	}}
	main := &ProcDesc{Name: "main", Code: func(fr *Frame, args []Value) []Value {
		e := fr.sys.NewFrame(echoTwice)
		r1 := fr.Call(e, 7)
		r2 := fr.Call(e, 8)
		return []Value{r1[0], r2[0]}
	}}
	res, err := s.Call(main)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 107 || res[1] != 1008 {
		t.Fatalf("res = %v", res)
	}
}

func TestRetainedFrameSurvivesReturn(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	var kept *Frame
	keeper := &ProcDesc{Name: "keeper", Code: func(fr *Frame, args []Value) []Value {
		fr.Retained = true
		kept = fr
		return []Value{1}
	}}
	if _, err := s.Call(keeper); err != nil {
		t.Fatal(err)
	}
	if kept.Freed() {
		t.Fatal("retained frame was freed by RETURN")
	}
	if err := kept.Free(); err != nil {
		t.Fatal(err)
	}
	if err := kept.Free(); !errors.Is(err, ErrFreedContext) {
		t.Fatalf("double free: %v", err)
	}
}

func TestXferToFreedFrameIsError(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	var stale *Frame
	victim := &ProcDesc{Name: "victim", Code: func(fr *Frame, args []Value) []Value {
		stale = fr
		return nil
	}}
	main := &ProcDesc{Name: "main", Code: func(fr *Frame, args []Value) []Value {
		fr.Call(victim)   // victim's frame is freed on return
		fr.Call(stale, 1) // dangling reference
		return nil
	}}
	_, err := s.Call(main)
	if !errors.Is(err, ErrFreedContext) {
		t.Fatalf("want ErrFreedContext, got %v", err)
	}
}

func TestTrapHandler(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	s.TrapHandler = &ProcDesc{Name: "handler", Code: func(fr *Frame, args []Value) []Value {
		// args[0] is the trap code; double it and resume the trapper.
		return []Value{args[0] * 2}
	}}
	trapper := &ProcDesc{Name: "trapper", Code: func(fr *Frame, args []Value) []Value {
		r := fr.Trap(33)
		return []Value{r[0]}
	}}
	res, err := s.Call(trapper)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 66 {
		t.Fatalf("res = %v", res)
	}
}

func TestTrapWithoutHandlerFails(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	trapper := &ProcDesc{Name: "trapper", Code: func(fr *Frame, args []Value) []Value {
		fr.Trap(1)
		return nil
	}}
	_, err := s.Call(trapper)
	if !errors.Is(err, ErrNoTrap) {
		t.Fatalf("want ErrNoTrap, got %v", err)
	}
}

func TestPanicInBodySurfacesAsError(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	bad := &ProcDesc{Name: "bad", Code: func(fr *Frame, args []Value) []Value {
		panic("boom")
	}}
	_, err := s.Call(bad)
	if err == nil {
		t.Fatal("panic not surfaced")
	}
}

// TestFailureBeforeRootWaits: a body that fails at once can finish before
// the goroutine in System.Call reaches its wait; the failure must still
// come back rather than leave Call blocked for good.
func TestFailureBeforeRootWaits(t *testing.T) {
	bodies := map[string]func(*Frame, []Value) []Value{
		"panic": func(*Frame, []Value) []Value { panic("boom") },
		"trap":  func(fr *Frame, _ []Value) []Value { fr.Trap(1); return nil },
	}
	for name, body := range bodies {
		for i := 0; i < 500; i++ {
			s := NewSystem()
			done := make(chan error, 1)
			go func() {
				_, err := s.Call(&ProcDesc{Name: name, Code: body})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("%s: failure not surfaced", name)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s, call %d: Call never returned", name, i)
			}
			s.Shutdown()
		}
	}
}

func TestMultipleProcessesRoundRobin(t *testing.T) {
	// A scheduler context transfers to several process contexts in turn —
	// the non-LIFO pattern the paper says rules out a contiguous stack.
	s := NewSystem()
	defer s.Shutdown()
	worker := &ProcDesc{Name: "worker", Code: func(fr *Frame, args []Value) []Value {
		sched := fr.ReturnLink
		acc := args[0]
		for i := 0; i < 3; i++ {
			rec := fr.Transfer(sched, acc)
			acc += rec[0]
		}
		return []Value{acc}
	}}
	scheduler := &ProcDesc{Name: "sched", Code: func(fr *Frame, args []Value) []Value {
		procs := []*Frame{fr.sys.NewFrame(worker), fr.sys.NewFrame(worker)}
		vals := []Value{10, 20}
		var total Value
		step := Value(1)
		// Start both, then keep resuming them alternately.
		for round := 0; round < 4; round++ {
			for i, p := range procs {
				if p.Freed() {
					continue
				}
				var rec []Value
				if round == 0 {
					rec = fr.Call(p, vals[i])
				} else {
					rec = fr.Call(p, step)
				}
				total = rec[0]
				_ = total
			}
		}
		return []Value{total}
	}}
	res, err := s.Call(scheduler)
	if err != nil {
		t.Fatal(err)
	}
	// worker2: 20 +1 +1 +1 = 23 returned on the last round.
	if res[0] != 23 {
		t.Fatalf("res = %v", res)
	}
}

func TestInterfaceRecords(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	read := &ProcDesc{Name: "IO.Read", Code: func(fr *Frame, args []Value) []Value {
		return []Value{100}
	}}
	write := &ProcDesc{Name: "IO.Write", Code: func(fr *Frame, args []Value) []Value {
		return []Value{args[0] + 1}
	}}
	io := &Interface{Name: "IO", Members: []Context{read, write}}
	client := &ProcDesc{Name: "client", Code: func(fr *Frame, args []Value) []Value {
		r := fr.Call(io.Lookup(0))
		w := fr.Call(io.Lookup(1), r[0])
		return []Value{w[0]}
	}}
	res, err := s.Call(client)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 101 {
		t.Fatalf("res = %v", res)
	}
	if io.Lookup(5) != nil || io.Lookup(-1) != nil {
		t.Fatal("out-of-range Lookup should be nil")
	}
}

func TestStatsAccounting(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	leaf := &ProcDesc{Name: "leaf", Code: func(fr *Frame, args []Value) []Value { return args }}
	mid := &ProcDesc{Name: "mid", Code: func(fr *Frame, args []Value) []Value {
		return fr.Call(leaf, args...)
	}}
	if _, err := s.Call(mid, 5); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Calls != 2 || st.Returns != 2 || st.Creates != 2 || st.Frees != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxLive != 2 {
		t.Fatalf("MaxLive = %d, want 2", st.MaxLive)
	}
}

func TestCallAfterShutdown(t *testing.T) {
	s := NewSystem()
	s.Shutdown()
	if _, err := s.Call(&ProcDesc{Name: "x", Code: func(fr *Frame, a []Value) []Value { return nil }}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("want ErrShutdown, got %v", err)
	}
}
