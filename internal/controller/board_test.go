package controller

import (
	"sync"
	"testing"
)

func boardWith(lens ...float64) *board {
	b := newBoard(len(lens))
	for j, l := range lens {
		b.ledgers[j].Push(0, l)
	}
	return b
}

// TestBoardConflictRejectsStaleClaim pins the optimistic-commit core: a
// claim against a snapshot that another commit has advanced must be
// rejected without registering anything, and succeed after re-snapshotting.
func TestBoardConflictRejectsStaleClaim(t *testing.T) {
	b := boardWith(10, 10)
	v1 := b.snapshot()
	v2 := b.snapshot()
	if !b.claim(v1, []float64{4, 0}, true) {
		t.Fatal("first claim on a fresh snapshot rejected")
	}
	if b.claim(v2, []float64{3, 0}, true) {
		t.Fatal("stale claim on an advanced row accepted")
	}
	if got := b.snapshot().lens[0]; got != 6 {
		t.Fatalf("rejected claim changed row 0: remaining %v, want 6", got)
	}
	// Rows the stale view merely read, but does not claim from, never conflict.
	if !b.claim(v2, []float64{0, 5}, true) {
		t.Fatal("claim on an unadvanced row rejected")
	}
	v3 := b.snapshot()
	if v3.lens[0] != 6 || v3.lens[1] != 5 {
		t.Fatalf("claim-reduced snapshot %v, want [6 5]", v3.lens)
	}
	if !b.claim(v3, []float64{3, 0}, true) {
		t.Fatal("retried claim on a fresh snapshot rejected")
	}
}

// TestBoardForcedClaimCapsAtContent pins the forced-commit escape hatch: an
// unvalidated claim always succeeds but can never register more than the
// rows still hold, so a forced commit may over-promise but never over-pop.
func TestBoardForcedClaimCapsAtContent(t *testing.T) {
	b := boardWith(5)
	v := b.snapshot()
	if !b.claim(v, []float64{4}, false) {
		t.Fatal("unvalidated claim rejected")
	}
	if !b.claim(v, []float64{4}, false) {
		t.Fatal("second unvalidated claim rejected")
	}
	if got := b.snapshot().lens[0]; got != 0 {
		t.Fatalf("remaining %v after over-claim, want 0", got)
	}
	b.mu.Lock()
	claimed := b.claimed[0]
	b.mu.Unlock()
	if claimed != 5 {
		t.Fatalf("claimed %v from a row of 5", claimed)
	}
	if got := b.lensUnclaimed()[0]; got != 5 {
		t.Fatalf("claims leaked into the ledger: lens %v, want 5", got)
	}
}

// TestBoardResetClaimsOpensSlot pins the slot boundary: resetClaims restores
// full visibility without touching the ledgers.
func TestBoardResetClaimsOpensSlot(t *testing.T) {
	b := boardWith(8)
	if !b.claim(b.snapshot(), []float64{8}, true) {
		t.Fatal("claim rejected")
	}
	if got := b.snapshot().lens[0]; got != 0 {
		t.Fatalf("remaining %v, want 0", got)
	}
	b.resetClaims()
	if got := b.snapshot().lens[0]; got != 8 {
		t.Fatalf("remaining %v after resetClaims, want 8", got)
	}
}

// TestBoardConcurrentClaimsNeverOverdraw races many claimants at one row:
// whatever interleaving wins, the registered total can never exceed the
// row's content.
func TestBoardConcurrentClaimsNeverOverdraw(t *testing.T) {
	b := boardWith(20)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				v := b.snapshot()
				if !b.claim(v, []float64{3}, true) {
					continue
				}
			}
		}()
	}
	wg.Wait()
	b.mu.Lock()
	claimed := b.claimed[0]
	b.mu.Unlock()
	if claimed > 20 {
		t.Fatalf("claims total %v exceeds row content 20", claimed)
	}
	if got := b.snapshot().lens[0]; got < 0 {
		t.Fatalf("negative claim-reduced length %v", got)
	}
}
