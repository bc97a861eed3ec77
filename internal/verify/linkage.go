package verify

import (
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The region model is built from the linker's instance metadata, but the
// machine re-reads the linkage from code bytes and memory at every call:
// the entry vector and the frame-class byte in front of each procedure,
// the code base in global-frame words 0–1, the GFT slots a descriptor
// names, the link vector below the global frame and the global-frame
// address inline in each direct-call header. checkLinkage holds the first
// four to the metadata and rejects any disagreement. importSlotOK and
// headerGFOK mark the calls that read linkage the metadata does not pin
// down: their callee, and so their result depth, is unknown.

// checkLinkage rejects an image whose linkage words disagree with the
// instance metadata the regions were built from.
func (a *analyzer) checkLinkage() {
	for _, inst := range a.p.Instances {
		cb := inst.CodeBase
		lo, okLo := a.data[inst.GF]
		hi, okHi := a.data[inst.GF+1]
		if !okLo || !okHi || uint32(lo)|uint32(hi)<<16 != cb {
			a.diag(cb, LevelError, ReasonLinkage,
				"global frame %04x of %s does not hold its code base %06x", inst.GF, inst.Module.Name, cb)
		}
		for k := 0; k == 0 || k*image.BiasStep < len(inst.EVOffsets); k++ {
			want, err := image.PackGFTEntry(inst.GF, k)
			if got, ok := a.data[image.GFTBase+mem.Addr(inst.GFIBase+k)]; err != nil || !ok || got != want {
				a.diag(cb, LevelError, ReasonLinkage,
					"GFT slot %d of %s does not name global frame %04x with bias %d",
					inst.GFIBase+k, inst.Module.Name, inst.GF, k)
			}
		}
		for i, off := range inst.EVOffsets {
			ev := int64(cb) + int64(2*i)
			if ev+1 >= int64(len(a.code)) || uint16(a.code[ev])|uint16(a.code[ev+1])<<8 != off {
				a.diag(uint32(ev), LevelError, ReasonLinkage,
					"entry-vector slot %d of %s does not hold offset %04x", i, inst.Module.Name, off)
				continue
			}
			if h := int64(cb) + int64(off); h >= int64(len(a.code)) || int(a.code[h]) != inst.FSI[i] {
				a.diag(uint32(h), LevelError, ReasonLinkage,
					"header of %s.%s does not hold its frame class %d",
					inst.Module.Name, inst.Module.Procs[i].Name, inst.FSI[i])
			}
		}
	}
}

// importSlotOK reports whether an external call's link-vector slot is
// one of the module's imports. A slot past them is another module's global
// or link state, which the program can rewrite at run time, so the callee
// is unknown.
func importSlotOK(inst *image.Instance, slot int) bool {
	return slot < len(inst.Module.Imports)
}

// headerGFOK reports whether a direct call's inline header names the
// callee instance's global frame. Otherwise the callee runs against
// another module's globals and link vector, and its summary does not
// describe the call.
func headerGFOK(in *isa.Inst, callee *image.Instance) bool {
	return mem.Addr(in.GF) == callee.GF
}
