package regbank

import (
	"math/rand"
	"testing"
)

func TestAcquireFreeBanks(t *testing.T) {
	f := New(3, 16)
	b1, evicted := f.Acquire(100)
	if b1 < 0 || evicted {
		t.Fatalf("first acquire: %d %v", b1, evicted)
	}
	b2, _ := f.Acquire(200)
	b3, _ := f.Acquire(300)
	if b1 == b2 || b2 == b3 || b1 == b3 {
		t.Fatal("banks not distinct")
	}
	if f.Lookup(200) != b2 {
		t.Fatal("lookup failed")
	}
}

func TestOverflowEvictsOldestNotStack(t *testing.T) {
	f := New(3, 16)
	sb, _ := f.Acquire(OwnerStack)
	f.Acquire(100)
	f.Acquire(200)
	// All full; next acquisition must evict 100 (oldest frame bank), never
	// the stack bank. Pick leaves the victim's contents in place for the
	// flush; Assign then clears them.
	b := f.Pick()
	if b == sb {
		t.Fatal("stack bank evicted")
	}
	victim := f.Get(b)
	if victim.Owner != 100 {
		t.Fatalf("victim = %+v, want owner 100", victim)
	}
	f.Write(b, 2, 0xBEEF)
	if f.Pick() != b || victim.Words[2] != 0xBEEF || victim.Dirty != 1<<2 {
		t.Fatal("Pick changed the bank it chose")
	}
	f.Assign(b, 300)
	if victim.Owner != 300 || victim.Words[2] != 0 || victim.Dirty != 0 {
		t.Fatalf("Assign left %+v, want a clean zeroed bank owned by 300", victim)
	}
	if f.StackBank() != sb {
		t.Fatal("stack bank lost")
	}
}

func TestRenamePreservesContentsAndDirty(t *testing.T) {
	f := New(2, 8)
	b, _ := f.Acquire(OwnerStack)
	f.Write(b, 3, 0xBEEF)
	f.Rename(b, 500)
	if f.Lookup(500) != b {
		t.Fatal("rename lost ownership")
	}
	if f.Read(b, 3) != 0xBEEF {
		t.Fatal("rename lost contents — argument passing would not be free")
	}
	if f.Get(b).Dirty&(1<<3) == 0 {
		t.Fatal("rename lost dirty mask — a later flush would drop the argument")
	}
}

func TestReleaseDropsContentsWithoutFlush(t *testing.T) {
	f := New(2, 8)
	b, _ := f.Acquire(42)
	f.Write(b, 0, 1)
	f.Release(b)
	if f.Lookup(42) >= 0 {
		t.Fatal("released bank still owned")
	}
	// A new owner gets a zeroed bank.
	b2, _ := f.Acquire(43)
	if f.Read(b2, 0) != 0 {
		t.Fatal("bank not cleared on reassignment")
	}
}

// TestAssignClearsDirty: a reload writes the frame's words straight into
// the bank Assign handed out, so Assign must leave it clean — words read
// back from storage are not dirty — even when the bank was dirty before.
func TestAssignClearsDirty(t *testing.T) {
	f := New(1, 4)
	b, _ := f.Acquire(10)
	f.Write(b, 1, 5)
	f.Assign(b, 20)
	bank := f.Get(b)
	if bank.Dirty != 0 {
		t.Fatal("reassignment should leave the bank clean")
	}
	copy(bank.Words, []uint16{9, 8, 7, 6})
	if bank.Dirty != 0 || f.Read(b, 0) != 9 || f.Read(b, 3) != 6 {
		t.Fatal("in-place reload contents wrong")
	}
}

func TestReleaseAllFreesEveryBank(t *testing.T) {
	f := New(4, 8)
	f.Acquire(OwnerStack)
	f.Acquire(1)
	b, _ := f.Acquire(2)
	f.Write(b, 0, 77)
	f.ReleaseAll()
	for i := 0; i < f.NumBanks(); i++ {
		if bank := f.Get(i); bank.Owner != OwnerFree || bank.Dirty != 0 {
			t.Fatalf("bank %d not free and clean: %+v", i, bank)
		}
	}
	if f.StackBank() >= 0 || f.Lookup(1) >= 0 {
		t.Fatal("banks not freed")
	}
}

func TestDisabledFile(t *testing.T) {
	f := New(0, 16)
	if b, _ := f.Acquire(1); b != -1 {
		t.Fatal("disabled file handed out a bank")
	}
	if f.Lookup(1) != -1 || f.BankWords() != 0 {
		t.Fatal("disabled file misbehaves")
	}
}

func TestTouchProtectsRecentBank(t *testing.T) {
	f := New(2, 8)
	b1, _ := f.Acquire(100)
	f.Acquire(200)
	f.Touch(b1) // 100 becomes the most recent
	if victim := f.Get(f.Pick()); victim.Owner != 200 {
		t.Fatalf("victim %+v, want 200 after touching 100", victim)
	}
}

func TestRandomOwnershipInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := New(5, 16)
	owners := map[int32]bool{}
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			o := int32(rng.Intn(50) * 2)
			if f.Lookup(uint16(o)) < 0 {
				if victim := f.Get(f.Pick()); victim.Owner >= 0 {
					delete(owners, victim.Owner)
				}
				f.Acquire(o)
				owners[o] = true
			}
		case 1:
			o := int32(rng.Intn(50) * 2)
			if b := f.Lookup(uint16(o)); b >= 0 {
				f.Release(b)
				delete(owners, o)
			}
		case 2:
			// invariant: no two banks share an owner
			seen := map[int32]bool{}
			for b := 0; b < f.NumBanks(); b++ {
				o := f.Get(b).Owner
				if o == OwnerFree {
					continue
				}
				if seen[o] {
					t.Fatalf("owner %d has two banks", o)
				}
				seen[o] = true
			}
		}
	}
}

func TestBankWordsLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized banks accepted")
		}
	}()
	New(1, 65)
}

func TestReset(t *testing.T) {
	f := New(4, 16)
	b, _ := f.Acquire(OwnerStack)
	f.Write(b, 3, 0xBEEF)
	b2, _ := f.Acquire(0x1234)
	f.Write(b2, 0, 1)
	f.Reset()
	for i := 0; i < f.NumBanks(); i++ {
		bank := f.Get(i)
		if bank.Owner != OwnerFree || bank.Dirty != 0 {
			t.Fatalf("bank %d not free/clean after Reset: %+v", i, bank)
		}
		for j, w := range bank.Words {
			if w != 0 {
				t.Fatalf("bank %d word %d = %04x after Reset", i, j, w)
			}
		}
	}
	if f.StackBank() != -1 || f.Lookup(0x1234) != -1 {
		t.Fatal("ownership survived Reset")
	}
}
