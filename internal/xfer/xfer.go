// Package xfer implements the paper's abstract control-transfer model
// (§3) and its straightforward implementation I1 (§4).
//
// The model has two elements: contexts, the entities among which control is
// transferred, and XFER, the single primitive that transfers it. A context
// is either a Frame — a live activation holding everything required to
// resume it (F1) — or a ProcDesc, the "creation context" for a procedure: an
// abstract context whose code loops forever creating a fresh frame for the
// procedure and forwarding control to it. Two globals participate in every
// transfer: returnContext (who control should return to) and argumentRecord
// (the arguments or results being passed); arguments and results are handled
// symmetrically by XFER itself (F4).
//
// Frames are first-class objects allocated and freed explicitly, not
// necessarily last-in first-out (F2), and any context may be the destination
// of any XFER — the choice between procedure call, coroutine transfer, or
// another discipline is made by the destination, not the caller (F3).
//
// The implementation runs each frame on its own goroutine with a strict
// hand-off: exactly one context executes at a time, so programs are
// deterministic. The "single reference to each frame" discipline of §4 is
// enforced: transferring to a freed frame is an error rather than a dangling
// reference.
package xfer

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Value is the reference model's machine word. The costed simulator uses
// 16-bit words; the reference model uses the same width so differential
// tests compare exactly.
type Value = uint16

// Context is the destination of an XFER: either a *Frame (an existing
// activation) or a *ProcDesc (a procedure descriptor, which constructs a
// fresh activation when control is transferred to it).
type Context interface{ context() }

// ProcDesc is a procedure descriptor: the pair (pointer to procedure,
// pointer to environment) of §3/§4. An XFER to a ProcDesc allocates a new
// frame, saves returnContext into its return link, delivers the argument
// record, and begins executing Code.
type ProcDesc struct {
	Name string
	// Env is the environment reference every procedure descriptor carries
	// (F1): typically the module's global frame. Opaque to the model.
	Env interface{}
	// Code is the procedure body. It runs with the new frame and the
	// argument record; its results are passed to the return link when it
	// returns normally.
	Code func(fr *Frame, args []Value) []Value
}

func (*ProcDesc) context() {}

// Frame is a live activation record: program counter (implicit in the
// suspended goroutine), return link, locals, and the retained flag.
type Frame struct {
	sys        *System
	Desc       *ProcDesc
	ReturnLink Context
	// Retained marks a frame that must outlive its return (§4). RETURN
	// does not free a retained frame; the owner frees it explicitly.
	Retained bool

	freed   bool
	started bool
	resume  chan []Value
}

func (*Frame) context() {}

// Stats counts model activity.
type Stats struct {
	Calls   uint64 // XFERs to procedure descriptors
	Resumes uint64 // XFERs to existing frames (returns, coroutine transfers)
	Returns uint64 // RETURN operations
	Creates uint64 // frames created
	Frees   uint64 // frames freed
	Live    uint64
	MaxLive uint64
}

// System holds the two global cells of the model and the frame population.
type System struct {
	returnContext  Context
	argumentRecord []Value
	stats          Stats

	err    error
	root   *Frame
	kill   chan struct{}
	closed bool

	// TrapHandler, when set, receives control on Frame.Trap with the trap
	// code prepended to the argument record — the paper's uniform handling
	// of traps through XFER.
	TrapHandler Context
}

// Errors reported by the model.
var (
	ErrFreedContext = errors.New("xfer: XFER to freed frame")
	ErrNilContext   = errors.New("xfer: XFER to nil context (return from a return)")
	ErrShutdown     = errors.New("xfer: system shut down")
	ErrNoTrap       = errors.New("xfer: trap with no handler")
)

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{kill: make(chan struct{})}
}

// Stats returns a copy of the counters.
func (s *System) Stats() Stats { return s.stats }

// ReturnContext exposes the returnContext global: inside a procedure this
// is the context the current transfer came from.
func (s *System) ReturnContext() Context { return s.returnContext }

// Call runs dest from outside the system: the calling Go routine plays the
// role of a root context. It returns the result record of the transfer that
// eventually comes back to the root.
func (s *System) Call(dest Context, args ...Value) ([]Value, error) {
	if s.closed {
		return nil, ErrShutdown
	}
	// The root's channel holds one record: fail and a panicking body wake
	// the root with a send that does not block, and a context can fail
	// before this goroutine reaches its wait below.
	root := &Frame{sys: s, resume: make(chan []Value, 1), started: true,
		Desc: &ProcDesc{Name: "<root>"}}
	s.root = root
	s.returnContext = root
	s.argumentRecord = args
	s.dispatch(dest)
	select {
	case res := <-root.resume:
		return res, s.err
	case <-s.kill:
		return nil, ErrShutdown
	}
	// The root frame is never freed; it stands for the world outside.
}

// Shutdown abandons all suspended contexts (their goroutines unwind and
// exit). The system is unusable afterwards.
func (s *System) Shutdown() {
	if !s.closed {
		s.closed = true
		close(s.kill)
	}
}

// fail records the first error and forces control back to the root.
func (s *System) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	if s.root != nil {
		select {
		case s.root.resume <- nil:
		default:
		}
	}
	panic(unwind{})
}

// unwind is the panic payload used to terminate goroutines on error or
// shutdown; it is always recovered by the frame wrapper.
type unwind struct{}

// dispatch performs the destination side of XFER: start a procedure
// descriptor or resume a frame. The caller has already set returnContext
// and argumentRecord.
func (s *System) dispatch(dest Context) {
	switch d := dest.(type) {
	case *ProcDesc:
		// The creation context of §3: make a new context and forward
		// control to it; returnContext and argumentRecord are unchanged.
		fr := s.NewFrame(d)
		s.stats.Calls++
		s.start(fr)
	case *Frame:
		if d.freed {
			s.fail(fmt.Errorf("%w: %s", ErrFreedContext, d.Desc.Name))
		}
		s.stats.Resumes++
		if !d.started {
			// A context created with NewFrame but never run: its PC is at
			// the start of the procedure, so the first transfer begins it.
			s.start(d)
			return
		}
		select {
		case d.resume <- s.argumentRecord:
		case <-s.kill:
			panic(unwind{})
		}
	case nil:
		s.fail(ErrNilContext)
	default:
		s.fail(fmt.Errorf("xfer: unknown context %T", dest))
	}
}

// NewFrame allocates a context for desc without transferring to it — the
// frame's program counter sits at the procedure's first instruction. The
// first XFER to the frame begins execution (this is how coroutines are
// created). Frames made this way are retained by default, since the creator
// holds a reference independent of the call chain.
func (s *System) NewFrame(desc *ProcDesc) *Frame {
	fr := &Frame{sys: s, Desc: desc, resume: make(chan []Value)}
	s.stats.Creates++
	s.stats.Live++
	if s.stats.Live > s.stats.MaxLive {
		s.stats.MaxLive = s.stats.Live
	}
	return fr
}

// start launches fr's body goroutine. Control passes to it; the caller is
// expected to block on its own resume channel afterwards (or return to Go).
func (s *System) start(fr *Frame) {
	fr.started = true
	// The new procedure saves the returnContext in its returnLink (§3) and
	// retrieves the argument record.
	fr.ReturnLink = s.returnContext
	args := s.argumentRecord
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(unwind); ok {
					return
				}
				if s.err == nil {
					s.err = fmt.Errorf("xfer: %s panicked: %v\n%s", fr.Desc.Name, r, debug.Stack())
				}
				if s.root != nil {
					select {
					case s.root.resume <- nil:
					default:
					}
				}
			}
		}()
		results := fr.Desc.Code(fr, args)
		fr.Return(results...)
	}()
}

// block suspends fr until someone XFERs to it, returning the argument
// record of that transfer.
func (fr *Frame) block() []Value {
	select {
	case args := <-fr.resume:
		return args
	case <-fr.sys.kill:
		panic(unwind{})
	}
}

// Call performs a procedure call from inside a context: it sets
// returnContext to fr (as the call instruction does implicitly), passes
// args, XFERs to dest, and blocks until control comes back, returning the
// result record.
func (fr *Frame) Call(dest Context, args ...Value) []Value {
	s := fr.sys
	s.returnContext = fr
	s.argumentRecord = args
	s.dispatch(dest)
	return fr.block()
}

// Transfer is a coroutine-style XFER: like Call, control may come back via
// any context that transfers to fr, not only a return. returnContext is set
// to fr, but the destination is free to ignore it (F3).
func (fr *Frame) Transfer(dest Context, args ...Value) []Value {
	return fr.Call(dest, args...)
}

// Return performs the RETURN operation of §3/§4: retrieve the return link,
// free the frame unless it is retained, set returnContext to NIL (an
// attempt to return from this return would be an error), and XFER to the
// link with results as the argument record. It does not come back; the
// frame's goroutine exits.
func (fr *Frame) Return(results ...Value) {
	s := fr.sys
	link := fr.ReturnLink
	if !fr.Retained {
		fr.free()
	}
	s.stats.Returns++
	s.returnContext = nil
	s.argumentRecord = results
	if root, ok := link.(*Frame); ok && root == s.root {
		select {
		case root.resume <- results:
		case <-s.kill:
		}
		panic(unwind{})
	}
	s.dispatch(link)
	panic(unwind{})
}

// Free releases a retained frame explicitly. Freeing a frame that is not
// retained (RETURN already freed it) or freeing twice is an error.
func (fr *Frame) Free() error {
	if fr.freed {
		return fmt.Errorf("%w: %s already freed", ErrFreedContext, fr.Desc.Name)
	}
	fr.free()
	return nil
}

func (fr *Frame) free() {
	fr.freed = true
	fr.sys.stats.Frees++
	fr.sys.stats.Live--
}

// Freed reports whether the frame has been freed.
func (fr *Frame) Freed() bool { return fr.freed }

// Trap transfers to the system's TrapHandler with code prepended to args,
// setting returnContext to fr so the handler can resume the trapper.
func (fr *Frame) Trap(code Value, args ...Value) []Value {
	s := fr.sys
	if s.TrapHandler == nil {
		s.fail(fmt.Errorf("%w: code %d in %s", ErrNoTrap, code, fr.Desc.Name))
	}
	rec := append([]Value{code}, args...)
	return fr.Call(s.TrapHandler, rec...)
}

// Interface is the paper's §3 notion of an interface record: a collection
// of contexts for procedures grouped under a common name. A client holding
// the record calls a member by position.
type Interface struct {
	Name    string
	Members []Context
}

// Lookup returns the context at slot i (the position agreed between client
// and implementation).
func (i *Interface) Lookup(slot int) Context {
	if slot < 0 || slot >= len(i.Members) {
		return nil
	}
	return i.Members[slot]
}
