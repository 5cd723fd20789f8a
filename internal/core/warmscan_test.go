package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestWarmPivotMatchesFullScan is the soundness property of the warm-start
// scan: bestWindowFrom must return the full range's exact maximum for
// *every* pivot — a warm hint only reorders the branch-and-bound
// evaluation, it must never change the result. The fixtures are crafted to
// break a scan that trusts its pivot: self-similar corridors where an
// above-threshold noisy decoy sits near the pivot while the true maximum
// lies far away, so a bound that stopped at the pivot-local best would
// return the decoy.
func TestWarmPivotMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k, m, w = 5, 120, 16
	for trial := 0; trial < 40; trial++ {
		ref := randRows(rng, k, w)
		tgt := randRows(rng, k, m)
		if trial%2 == 1 {
			// Plant the reference twice: an exact copy (the true maximum)
			// and a noisy decoy far away, so a pivot near the decoy starts
			// from a strong interior local maximum that is still wrong.
			for i := 0; i < k; i++ {
				copy(tgt[i][80:80+w], ref[i])
				for u := 0; u < w; u++ {
					tgt[i][20+u] = ref[i][u] + 0.7*rng.NormFloat64()
				}
			}
		}
		src := newMatrixIndex(ref)
		dst := newMatrixIndex(tgt)
		dst.ensureWindowStats(w)
		s := newSegScorer(src, dst, 0, w, false)
		if !s.canBound() {
			t.Fatal("fixture should support the dense bound path")
		}
		n := s.positions()
		wantPos, wantScore := s.bestWindowIn(0, n-1)
		for pivot := 0; pivot < n; pivot += 3 {
			pos, score := s.bestWindowFrom(0, n-1, pivot, noFloor)
			if pos != wantPos || score != wantScore {
				t.Fatalf("trial %d pivot %d: warm-pivoted scan returned (%d, %v), full scan (%d, %v)",
					trial, pivot, pos, score, wantPos, wantScore)
			}
		}
		s.release()
	}
}

// TestSeededScanCombineEquivalence pins bestWindowFrom's floor contract: the
// returned best must be bitwise exact whenever this direction would win
// combine against the seed (the other direction's score, under the given
// tie rule), and may only undercount — never overcount — when it loses.
// Either way combine's direction choice equals the cold full scan's. The
// seed ladder includes the exact maximum itself, which is the clamped-
// correlation tie case (identical signals score exactly 2 in both
// directions): a ties-win direction must still find it exactly.
func TestSeededScanCombineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k, m, w = 5, 120, 16
	var exact, undercut int
	for trial := 0; trial < 60; trial++ {
		ref := randRows(rng, k, w)
		tgt := randRows(rng, k, m)
		switch trial % 3 {
		case 1: // strong planted maximum (score near 2)
			for i := 0; i < k; i++ {
				copy(tgt[i][60:60+w], ref[i])
			}
		case 2: // moderate noisy maximum
			for i := 0; i < k; i++ {
				for u := 0; u < w; u++ {
					tgt[i][30+u] = ref[i][u] + 0.5*rng.NormFloat64()
				}
			}
		}
		src := newMatrixIndex(ref)
		dst := newMatrixIndex(tgt)
		dst.ensureWindowStats(w)
		s := newSegScorer(src, dst, 0, w, false)
		if !s.canBound() {
			t.Fatal("fixture should support the dense bound path")
		}
		n := s.positions()
		wantPos, wantScore := s.bestWindowIn(0, n-1)
		for _, seed := range []float64{math.Inf(-1), wantScore - 0.5, wantScore, wantScore + 0.3} {
			for _, tiesWin := range []bool{true, false} {
				pos, sc := s.bestWindowFrom(0, n-1, -1, floor{v: seed, tiesLose: !tiesWin})
				wins := wantScore > seed || (tiesWin && wantScore == seed)
				if wins {
					if pos != wantPos || sc != wantScore {
						t.Fatalf("trial %d seed %v tiesWin %v: winning direction returned (%d, %v), full scan (%d, %v)",
							trial, seed, tiesWin, pos, sc, wantPos, wantScore)
					}
					exact++
					continue
				}
				if sc > wantScore {
					t.Fatalf("trial %d seed %v tiesWin %v: seeded scan overcounted: %v > full scan %v",
						trial, seed, tiesWin, sc, wantScore)
				}
				undercut++
			}
		}
		s.release()
	}
	if exact == 0 || undercut == 0 {
		t.Fatalf("fixture never exercised both branches (exact %d, undercut %d)", exact, undercut)
	}
}

// TestBoundedScanMatchesExhaustive holds bestWindowFrom — column bound,
// threshold floor and early abandoning together — to a plain exhaustive
// scoreAt loop over random, planted-maximum and clamped-tie fixtures (an
// exact planted copy, whose channel and column correlations clamp toward
// the score-2 ceiling), across sub-ranges, pivots and a floor ladder under
// both tie rules. When the range maximum reaches the floor the scan must
// return the reference's (pos, score) bitwise; otherwise its score must
// fail the floor, or be (-1, -Inf) when nothing was scored in full.
func TestBoundedScanMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var exact, below, abandoned, clamped int
	for trial := 0; trial < 90; trial++ {
		k, w, m := 5, 16, 120
		if trial%2 == 1 {
			k, w, m = 45, 40, 260
		}
		ref := randRows(rng, k, w)
		tgt := randRows(rng, k, m)
		at := rng.Intn(m - w + 1)
		switch trial % 3 {
		case 1: // clamped tie: an exact copy of the reference
			for i := 0; i < k; i++ {
				copy(tgt[i][at:at+w], ref[i])
			}
		case 2: // planted noisy maximum
			for i := 0; i < k; i++ {
				for u := 0; u < w; u++ {
					tgt[i][at+u] = ref[i][u] + 4*rng.NormFloat64()
				}
			}
		}
		dst := newMatrixIndex(tgt)
		dst.ensureWindowStats(w)
		s := newSegScorer(newMatrixIndex(ref), dst, 0, w, false)
		if !s.canBound() {
			t.Fatal("fixture should support the dense bound path")
		}
		n := s.positions()
		lo, hi := 0, n-1
		if trial%4 == 3 {
			lo, hi = rng.Intn(n/2), n/2+rng.Intn(n/2)
		}
		wantPos, want := exhaustiveScan(s, lo, hi)
		if want == 2 {
			clamped++
		}
		floors := []float64{math.Inf(-1), want - 0.3, want, want + 0.2}
		for _, pivot := range []int{-1, lo, hi, at, lo + rng.Intn(hi-lo+1)} {
			for _, fv := range floors {
				for _, tiesLose := range []bool{false, true} {
					f := floor{v: fv, tiesLose: tiesLose}
					s.visited, s.pruned, s.abandoned = 0, 0, 0
					pos, sc := s.bestWindowFrom(lo, hi, pivot, f)
					if got := s.visited + s.pruned + s.abandoned; got != hi-lo+1 {
						t.Fatalf("trial %d: %d placements accounted for, range holds %d", trial, got, hi-lo+1)
					}
					abandoned += s.abandoned
					reaches := func(x float64) bool { return x > fv || (!tiesLose && x == fv) }
					if reaches(want) {
						if pos != wantPos || sc != want {
							t.Fatalf("trial %d pivot %d floor %+v: bounded scan (%d, %v), exhaustive (%d, %v)",
								trial, pivot, f, pos, sc, wantPos, want)
						}
						exact++
						continue
					}
					if pos == -1 && math.IsInf(sc, -1) {
						below++
						continue
					}
					if reaches(sc) || sc > want || pos < lo || pos > hi {
						t.Fatalf("trial %d pivot %d floor %+v: max %v fails the floor, but the scan returned (%d, %v)",
							trial, pivot, f, want, pos, sc)
					}
					below++
				}
			}
		}
		s.release()
	}
	if exact == 0 || below == 0 || abandoned == 0 || clamped == 0 {
		t.Fatalf("fixtures never exercised every branch (exact %d, below floor %d, abandoned %d, clamped at 2: %d)",
			exact, below, abandoned, clamped)
	}
}
