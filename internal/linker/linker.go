// Package linker binds compiled modules into a loadable Program: it places
// global frames and link vectors in the main data space, builds the global
// frame table, lays out code segments with their entry vectors and inline
// procedure headers, resolves imports to packed descriptors, and encodes
// the instruction streams.
//
// Two policies from the paper live here:
//
//   - Link-vector slot assignment by static call frequency (§5.1: "a number
//     of one-byte opcodes, so that the (statically) most frequently called
//     procedures in a module can be called in a single byte"): the hottest
//     eight imports of a module get the one-byte EFC0..EFC7 forms.
//
//   - Early binding (§6, §8): with Options.EarlyBind, external calls to
//     procedures in single-instance modules are converted to DIRECTCALL,
//     and narrowed to SHORTDIRECTCALL when the callee is within PC-relative
//     range. Multi-instance modules fall back to the general scheme (D2),
//     and the program behaves identically either way — only space and speed
//     change.
package linker

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/frames"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Options selects linkage policies.
type Options struct {
	// EarlyBind converts eligible external calls to DCALL/SDCALL (§6).
	EarlyBind bool
	// NoShortCalls disables the SDCALL narrowing pass (keeps all direct
	// calls at four bytes) — used by the E6 space experiment.
	NoShortCalls bool
	// NoImportSort keeps link-vector slots in declaration order instead of
	// static-frequency order.
	NoImportSort bool
	// FrameSizes overrides the frame-heap size-class table.
	FrameSizes []int
	// Instances requests multiple instances of a module by name (default 1).
	Instances map[string]int
	// CodeStart is the first code byte address used (default 0x10).
	CodeStart uint32
}

// Stats summarizes what the linker produced, for the space experiments.
type Stats struct {
	Lengths      isa.LengthStats // static instruction-length distribution
	CodeBytes    int
	LVWords      int // total link-vector entries across instances
	DirectCalls  int // call sites bound as DCALL
	ShortCalls   int // call sites narrowed to SDCALL
	ExternCalls  int // call sites left on the LV path
	LocalCalls   int
	ProcCount    int
	FrameWordHst []int // frame words per procedure (for §7.1's size distribution)
}

// Errors.
var (
	ErrUnresolved = errors.New("linker: unresolved import")
	ErrTooBig     = errors.New("linker: out of space")
)

// callSite is a direct call in one procedure's code. The layout pass that
// resolves the procedure records where the call landed.
type callSite struct {
	insIdx  int // index in the procedure's relocatable instructions
	tgtInst int
	tgtProc int
	short   bool
	bodyIdx int // index of the call in the resolved body
	bodyOff int // byte offset of the call opcode within the resolved body
}

// place records where each direct call site of a procedure landed in its
// resolved body and returns the body's length in bytes. sites are in
// instruction order, and imap (ResolveJumps' index map) is increasing.
func place(body []isa.Instr, imap []int, sites []*callSite) int {
	sz, k := 0, 0
	for bi, b := range body {
		for ; k < len(sites) && imap[sites[k].insIdx] == bi; k++ {
			sites[k].bodyIdx, sites[k].bodyOff = bi, sz
		}
		sz += b.Len()
	}
	return sz
}

// Link binds modules into a Program whose execution starts at
// entryModule.entryProc.
func Link(mods []*image.Module, entryModule, entryProc string, opts Options) (*image.Program, *Stats, error) {
	if opts.FrameSizes == nil {
		opts.FrameSizes = frames.DefaultSizes(20, 25)
	}
	if opts.CodeStart == 0 {
		opts.CodeStart = 0x10
	}
	byName := map[string]*image.Module{}
	for _, m := range mods {
		if err := m.Validate(); err != nil {
			return nil, nil, err
		}
		if _, dup := byName[m.Name]; dup {
			return nil, nil, fmt.Errorf("linker: duplicate module %s", m.Name)
		}
		byName[m.Name] = m
	}

	// Build instances: all instances of a module share one code segment.
	var insts []*image.Instance
	firstInstOf := map[string]int{}
	instCount := func(name string) int {
		if n, ok := opts.Instances[name]; ok && n > 1 {
			return n
		}
		return 1
	}
	gfi := 0
	for _, m := range mods {
		n := instCount(m.Name)
		for k := 0; k < n; k++ {
			if k == 0 {
				firstInstOf[m.Name] = len(insts)
			}
			slots := (len(m.Procs) + image.BiasStep - 1) / image.BiasStep
			if slots == 0 {
				slots = 1
			}
			if gfi+slots > image.MaxGFI {
				return nil, nil, fmt.Errorf("%w: global frame table full", ErrTooBig)
			}
			insts = append(insts, &image.Instance{Module: m, GFIBase: gfi})
			gfi += slots
		}
	}

	// Resolve imports of each module to (instance, proc) of the target's
	// first instance.
	type ref struct{ inst, proc int }
	importRefs := map[string][]ref{}
	for _, m := range mods {
		refs := make([]ref, len(m.Imports))
		for i, imp := range m.Imports {
			tm, ok := byName[imp.Module]
			if !ok {
				return nil, nil, fmt.Errorf("%w: %s imports %s.%s", ErrUnresolved, m.Name, imp.Module, imp.Proc)
			}
			pi, ok := tm.ProcIndex(imp.Proc)
			if !ok {
				return nil, nil, fmt.Errorf("%w: %s imports %s.%s", ErrUnresolved, m.Name, imp.Module, imp.Proc)
			}
			refs[i] = ref{firstInstOf[imp.Module], pi}
		}
		importRefs[m.Name] = refs
	}

	// Per module: optionally permute import slots by static call frequency
	// so the hottest eight get one-byte call forms.
	slotOf := map[string][]int{} // module -> old import index -> new LV slot
	for _, m := range mods {
		n := len(m.Imports)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		if !opts.NoImportSort && n > 1 {
			uses := make([]int, n)
			for _, p := range m.Procs {
				for _, in := range p.Body.Ins {
					if in.Kind == image.ArgImport {
						uses[in.Arg]++
					}
				}
			}
			sort.SliceStable(perm, func(a, b int) bool { return uses[perm[a]] > uses[perm[b]] })
		}
		// perm[newSlot] = oldIndex; invert.
		inv := make([]int, n)
		for newSlot, old := range perm {
			inv[old] = newSlot
		}
		slotOf[m.Name] = inv
	}

	stats := &Stats{}

	// Transform each procedure's relocatable code: choose call forms.
	// working[mi][pi] is the mutable instruction list; sites[mi][pi] are
	// its direct call sites, patched once addresses are final.
	working := make([][][]image.RInstr, len(mods))
	sites := make([][][]*callSite, len(mods))
	for mi, m := range mods {
		procIns := make([][]image.RInstr, len(m.Procs))
		procSites := make([][]*callSite, len(m.Procs))
		for pi, p := range m.Procs {
			ins := make([]image.RInstr, len(p.Body.Ins))
			copy(ins, p.Body.Ins)
			for ii := range ins {
				in := &ins[ii]
				switch in.Kind {
				case image.ArgImport:
					r := importRefs[m.Name][in.Arg]
					tgt := insts[r.inst]
					single := instCount(tgt.Module.Name) == 1
					if opts.EarlyBind && single {
						in.Op = isa.DCALL
						procSites[pi] = append(procSites[pi], &callSite{
							insIdx: ii, tgtInst: r.inst, tgtProc: r.proc,
						})
						stats.DirectCalls++
					} else {
						slot := slotOf[m.Name][in.Arg]
						if slot < 8 {
							in.Op = isa.EFC0 + isa.Op(slot)
							in.Kind = image.ArgNone
							in.Arg = 0
						} else {
							in.Op = isa.EFCB
							in.Kind = image.ArgLit
							in.Arg = int32(slot)
						}
						stats.ExternCalls++
					}
				case image.ArgLocalProc:
					if opts.EarlyBind && instCount(m.Name) == 1 {
						in.Op = isa.DCALL
						procSites[pi] = append(procSites[pi], &callSite{
							insIdx: ii, tgtInst: firstInstOf[m.Name], tgtProc: int(in.Arg),
						})
						stats.DirectCalls++
					} else {
						if in.Arg < 4 {
							in.Op = isa.LFC0 + isa.Op(in.Arg)
							in.Kind = image.ArgNone
							in.Arg = 0
						} else {
							in.Op = isa.LFCB
							in.Kind = image.ArgLit
						}
						stats.LocalCalls++
					}
				case image.ArgImportDesc:
					r := importRefs[m.Name][in.Arg]
					desc, err := insts[r.inst].Descriptor(r.proc)
					if err != nil {
						return nil, nil, err
					}
					in.Kind = image.ArgLit
					in.Arg = int32(desc)
				case image.ArgLocalProcDesc:
					desc, err := insts[firstInstOf[m.Name]].Descriptor(int(in.Arg))
					if err != nil {
						return nil, nil, err
					}
					in.Kind = image.ArgLit
					in.Arg = int32(desc)
				case image.ArgFrameWords:
					fsi, ok := fsiFor(int(in.Arg), opts.FrameSizes)
					if !ok {
						return nil, nil, fmt.Errorf("%w: allocation of %d words", ErrTooBig, in.Arg)
					}
					in.Kind = image.ArgLit
					in.Arg = int32(fsi)
				}
			}
			procIns[pi] = ins
		}
		working[mi] = procIns
		sites[mi] = procSites
	}

	// layout places every segment, resolving each procedure's jumps once.
	// bodies[mi][pi] keeps the last pass's resolved code for emission, and
	// cursor ends at the code space's laid-out size.
	bodies := make([][][]isa.Instr, len(mods))
	for mi, m := range mods {
		bodies[mi] = make([][]isa.Instr, len(m.Procs))
	}
	var cursor uint32
	layout := func() error {
		cursor = opts.CodeStart
		for mi, m := range mods {
			segBase := (cursor + 3) &^ 3
			off := uint32(len(m.Procs) * 2) // entry vector
			evOffsets := make([]uint16, len(m.Procs))
			fsis := make([]int, len(m.Procs))
			for pi, p := range m.Procs {
				fsi, ok := fsiFor(p.FrameWords(), opts.FrameSizes)
				if !ok {
					return fmt.Errorf("%w: %s.%s needs %d frame words", ErrTooBig, m.Name, p.Name, p.FrameWords())
				}
				fsis[pi] = fsi
				off += 2 // header GF word
				if off > 0xFFFF-1 {
					return fmt.Errorf("%w: module %s code exceeds 64KB", ErrTooBig, m.Name)
				}
				evOffsets[pi] = uint16(off)
				off++ // fsi byte
				body, imap, err := image.ResolveJumps(working[mi][pi], p.Body.Labels)
				if err != nil {
					return fmt.Errorf("%s.%s: %w", m.Name, p.Name, err)
				}
				bodies[mi][pi] = body
				off += uint32(place(body, imap, sites[mi][pi]))
			}
			// All instances of the module share the segment.
			for ii, in := range insts {
				if in.Module == m {
					insts[ii].CodeBase = segBase
					insts[ii].EVOffsets = evOffsets
					insts[ii].FSI = fsis
				}
			}
			cursor = segBase + off
			if cursor >= 1<<24 {
				return fmt.Errorf("%w: code space exceeds 24 bits", ErrTooBig)
			}
		}
		return nil
	}
	if err := layout(); err != nil {
		return nil, nil, err
	}

	// SDCALL narrowing: with the current layout, any direct call whose
	// target header is within signed-16-bit range becomes three bytes.
	// Shrinking only brings targets closer, so one extra layout pass
	// converges; a final range check guards the invariant.
	if opts.EarlyBind && !opts.NoShortCalls {
		for mi, m := range mods {
			in := insts[firstInstOf[m.Name]]
			for pi, ps := range sites[mi] {
				for _, s := range ps {
					from := int64(in.ProcEntryPC(pi)) + int64(s.bodyOff)
					to := int64(insts[s.tgtInst].ProcHeaderAddr(s.tgtProc))
					rel := to - from
					if rel >= -32768 && rel <= 32767 {
						s.short = true
						working[mi][pi][s.insIdx].Op = isa.SDCALL
						stats.DirectCalls--
						stats.ShortCalls++
					}
				}
			}
		}
		if err := layout(); err != nil {
			return nil, nil, err
		}
	}

	// Place global frames and link vectors; build the GFT and data image.
	prog := &image.Program{
		FrameSizes: opts.FrameSizes,
		Instances:  insts,
		Symbols:    map[uint32]string{},
	}
	mds := int(image.GlobalsBase)
	for _, in := range insts {
		m := in.Module
		nlv := len(m.Imports)
		gf := (mds + nlv + 3) &^ 3
		need := gf + 2 + m.NumGlobals
		if need >= int(image.HeapLimit) {
			return nil, nil, fmt.Errorf("%w: global frames exceed data space", ErrTooBig)
		}
		in.GF = mem.Addr(gf)
		mds = need
		stats.LVWords += nlv
		// GFT entries with bias.
		slots := (len(m.Procs) + image.BiasStep - 1) / image.BiasStep
		if slots == 0 {
			slots = 1
		}
		for k := 0; k < slots; k++ {
			e, err := image.PackGFTEntry(in.GF, k)
			if err != nil {
				return nil, nil, err
			}
			prog.Data = append(prog.Data, image.DataWord{Addr: image.GFTBase + mem.Addr(in.GFIBase+k), Val: e})
		}
		// Code base in GF words 0,1.
		prog.Data = append(prog.Data,
			image.DataWord{Addr: in.GF, Val: mem.Word(in.CodeBase & 0xFFFF)},
			image.DataWord{Addr: in.GF + 1, Val: mem.Word(in.CodeBase >> 16)})
		// Global initializers.
		for g, v := range m.GlobalInit {
			prog.Data = append(prog.Data, image.DataWord{Addr: in.GF + 2 + mem.Addr(g), Val: v})
		}
		// Link vector below the global frame, hot slots first.
		for old, r := range importRefs[m.Name] {
			slot := slotOf[m.Name][old]
			desc, err := insts[r.inst].Descriptor(r.proc)
			if err != nil {
				return nil, nil, err
			}
			prog.Data = append(prog.Data, image.DataWord{Addr: in.GF - 1 - mem.Addr(slot), Val: desc})
		}
	}
	prog.HeapBase = mem.Addr((mds + 3) &^ 3)

	// Emit code bytes into a buffer of the laid-out size. The gaps before
	// CodeStart and between aligned segments stay zero: NOOP.
	code := make([]byte, cursor)
	for mi, m := range mods {
		in := insts[firstInstOf[m.Name]]
		// Entry vector.
		for pi := range m.Procs {
			code[in.CodeBase+uint32(2*pi)] = byte(in.EVOffsets[pi])
			code[in.CodeBase+uint32(2*pi)+1] = byte(in.EVOffsets[pi] >> 8)
		}
		for pi, p := range m.Procs {
			hdr := in.ProcHeaderAddr(pi)
			code[hdr], code[hdr+1], code[hdr+2] = byte(in.GF), byte(in.GF>>8), byte(in.FSI[pi])
			body := bodies[mi][pi]
			// Patch direct-call operands now that addresses are final.
			for _, s := range sites[mi][pi] {
				at := int64(in.ProcEntryPC(pi)) + int64(s.bodyOff)
				to := int64(insts[s.tgtInst].ProcHeaderAddr(s.tgtProc))
				if s.short {
					rel := to - at
					if rel < -32768 || rel > 32767 {
						return nil, nil, fmt.Errorf("linker: SDCALL out of range after narrowing (%d)", rel)
					}
					body[s.bodyIdx].Arg = int32(rel)
				} else {
					body[s.bodyIdx].Arg = int32(to)
				}
			}
			stats.Lengths.Count(body)
			// Appending to an empty slice at the entry pc encodes the
			// body in place: code's capacity runs to the laid-out end.
			enc := code[in.ProcEntryPC(pi):in.ProcEntryPC(pi)]
			for _, b := range body {
				enc = isa.Append(enc, b)
			}
			prog.Symbols[in.ProcEntryPC(pi)] = m.Name + "." + p.Name
			stats.ProcCount++
			stats.FrameWordHst = append(stats.FrameWordHst, p.FrameWords())
		}
	}
	prog.Code = code
	stats.CodeBytes = len(code) - int(opts.CodeStart)

	entry, err := prog.FindProc(entryModule, entryProc)
	if err != nil {
		return nil, nil, err
	}
	prog.Entry = entry
	return prog, stats, nil
}

func fsiFor(words int, sizes []int) (int, bool) {
	for i, s := range sizes {
		if s >= words {
			return i, true
		}
	}
	return 0, false
}
