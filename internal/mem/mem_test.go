package mem

import (
	"testing"
	"testing/quick"
)

func TestReadWriteAndStats(t *testing.T) {
	m := New()
	m.Write(100, 0xbeef)
	if got := m.Read(100); got != 0xbeef {
		t.Fatalf("Read = %04x", got)
	}
	s := m.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.Refs() != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPeekPokeUncharged(t *testing.T) {
	m := New()
	m.Poke(5, 42)
	if m.Peek(5) != 42 {
		t.Fatal("poke/peek mismatch")
	}
	if m.Stats().Refs() != 0 {
		t.Fatalf("peek/poke charged refs: %+v", m.Stats())
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	m := New()
	m.Write(7, 9)
	m.ResetStats()
	if m.Stats().Refs() != 0 {
		t.Fatal("stats not reset")
	}
	if m.Peek(7) != 9 {
		t.Fatal("contents lost on ResetStats")
	}
}

func TestClear(t *testing.T) {
	m := New()
	m.Write(3, 1)
	m.Clear()
	if m.Peek(3) != 0 || m.Stats().Refs() != 0 {
		t.Fatal("Clear incomplete")
	}
}

func TestWholeAddressSpaceProperty(t *testing.T) {
	m := New()
	f := func(a Addr, v Word) bool {
		m.Write(a, v)
		return m.Read(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDump(t *testing.T) {
	m := New()
	m.Poke(0, 0x1234)
	if got := m.Dump(0, 1); got != "0000: 1234\n" {
		t.Fatalf("Dump = %q", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := New()
	m.Poke(0x100, 7)
	m.Poke(0x8000, 9)
	snap := m.Snapshot()

	m2 := New()
	m2.LoadFrom(snap)
	if m2.Peek(0x100) != 7 || m2.Peek(0x8000) != 9 {
		t.Fatal("LoadFrom did not copy the snapshot")
	}
	if m2.DirtyWords() != 0 {
		t.Fatalf("fresh load dirty: %d words", m2.DirtyWords())
	}
	if m2.Stats().Refs() != 0 {
		t.Fatal("LoadFrom charged references")
	}

	// Dirty a few scattered words, then restore.
	m2.Write(0x100, 1)
	m2.Write(0x200, 2)
	m2.Poke(0x150, 3)
	if got := m2.DirtyWords(); got != 0x200-0x100+1 {
		t.Fatalf("dirty window = %d words", got)
	}
	m2.RestoreFrom(snap)
	if m2.Peek(0x100) != 7 || m2.Peek(0x200) != 0 || m2.Peek(0x150) != 0 {
		t.Fatal("RestoreFrom did not put the snapshot back")
	}
	if m2.Peek(0x8000) != 9 {
		t.Fatal("RestoreFrom touched words outside the dirty window incorrectly")
	}
	if m2.DirtyWords() != 0 || m2.Stats().Refs() != 0 {
		t.Fatal("RestoreFrom did not mark the store clean")
	}
}

// TestRestoreEquivalentToLoad: restoring a boot snapshot over any dirty
// window leaves the store word for word equal to a fresh load, wherever
// the dirty window lies against the boot window — below it, straddling
// either edge, inside it, covering it, above it, or anywhere at all when
// the boot window is empty — and after Clear dirtied the whole space.
func TestRestoreEquivalentToLoad(t *testing.T) {
	boots := []struct {
		name   string
		lo, hi int // words poked at boot; an empty range is the zero Snapshot
	}{
		{"low", 0, 64},
		{"mid", 0x1000, 0x1100},
		{"high", Size - 64, Size},
		{"empty", 0, 0},
	}
	for _, bw := range boots {
		boot := New()
		for a := bw.lo; a < bw.hi; a++ {
			boot.Poke(Addr(a), Word(a%5)*7+Word(a>>8)) // some boot words stay zero
		}
		snap := boot.Snapshot()
		if n := bw.hi - bw.lo; len(snap.Words) != n || n > 0 && snap.Lo != bw.lo {
			t.Fatalf("%s: snapshot window [%d,%d), boot wrote [%d,%d)", bw.name, snap.Lo, snap.Hi(), bw.lo, bw.hi)
		}
		want := New()
		want.LoadFrom(snap)
		lo, hi := bw.lo, bw.hi
		if lo >= hi {
			lo, hi = 0x4000, 0x4040
		}
		dirties := []struct {
			name   string
			lo, hi int
			clear  bool
		}{
			{"below", lo - 48, lo - 16, false},
			{"straddling the low edge", lo - 8, lo + 8, false},
			{"inside", lo + 8, hi - 8, false},
			{"covering", lo - 8, hi + 8, false},
			{"straddling the high edge", hi - 8, hi + 8, false},
			{"above", hi + 16, hi + 48, false},
			{"disjoint, far", (lo + Size/2) % Size, (lo+Size/2)%Size + 32, false},
			{"whole space after Clear", 0, 0, true},
		}
		for _, dw := range dirties {
			dlo, dhi := max(dw.lo, 0), min(dw.hi, Size)
			if !dw.clear && dlo >= dhi {
				continue
			}
			got := New()
			got.LoadFrom(snap)
			if dw.clear {
				got.Clear()
			}
			for a := dlo; a < dhi; a++ {
				got.Write(Addr(a), 0xFFFF)
			}
			got.RestoreFrom(snap)
			g, w := got.PeekRange(0, Size), want.PeekRange(0, Size)
			for a := range g {
				if g[a] != w[a] {
					t.Fatalf("boot %s, dirty %s [%d,%d): word %04x = %04x after restore, fresh load %04x",
						bw.name, dw.name, dlo, dhi, a, g[a], w[a])
				}
			}
			if got.DirtyWords() != 0 || got.Stats().Refs() != 0 {
				t.Fatalf("boot %s, dirty %s: restore left %d dirty words, %d refs", bw.name, dw.name, got.DirtyWords(), got.Stats().Refs())
			}
		}
	}
}

func TestClearMarksDirty(t *testing.T) {
	m := New()
	m.Poke(5, 1)
	snap := m.Snapshot()
	m.Clear()
	if m.DirtyWords() != Size {
		t.Fatalf("Clear left dirty window at %d", m.DirtyWords())
	}
	m.RestoreFrom(snap)
	if m.Peek(5) != 1 {
		t.Fatal("restore after Clear failed")
	}
}
