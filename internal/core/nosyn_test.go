package core

import (
	"math"
	"reflect"
	"testing"

	"rups/internal/stats"
	"rups/internal/trajectory"
)

// exhaustiveScan is the reference direction scan: every admissible
// placement scored with scoreAt, no pivot, no bound, no floor.
func exhaustiveScan(sc *segScorer, lo, hi int) (int, float64) {
	lo, hi = clampRange(lo, hi, sc.positions())
	best, bestJ := math.Inf(-1), -1
	for j := lo; j <= hi; j++ {
		if v := sc.scoreAt(j); v > best {
			best, bestJ = v, j
		}
	}
	return bestJ, best
}

// exhaustiveFindSYNs is FindSYNs with every direction scanned by
// exhaustiveScan: the same segment plans, locality bounds and combine, so
// any difference from the production search is the scan's doing.
func exhaustiveFindSYNs(s *Searcher, n int) []SYNPoint {
	var out []SYNPoint
	for i := 0; i < n; i++ {
		pl, ok := s.planSegment(i * s.p.SegmentStrideMeters)
		if !ok {
			continue
		}
		endA := s.aCtx.Len() - 1 - pl.endOff
		endB := s.bCtx.Len() - 1 - pl.endOff
		scAB := newSegScorer(s.idxA, s.idxB, endA-pl.w+1, pl.w, s.p.NoColumnTerm)
		lo, hi := s.bounds(s.bCtx.Len(), pl.w, pl.endOff)
		pl.posB, pl.scoreAB = exhaustiveScan(scAB, lo, hi)
		scAB.release()
		pl.posA, pl.scoreBA = -1, math.Inf(-1)
		if !s.p.SingleSided {
			scBA := newSegScorer(s.idxB, s.idxA, endB-pl.w+1, pl.w, s.p.NoColumnTerm)
			lo, hi := s.bounds(s.aCtx.Len(), pl.w, pl.endOff)
			pl.posA, pl.scoreBA = exhaustiveScan(scBA, lo, hi)
			scBA.release()
		}
		if syn, ok := s.combine(&pl); ok {
			out = append(out, syn)
		}
	}
	return out
}

// exhaustiveResolve aggregates exhaustiveFindSYNs exactly as
// Searcher.Resolve aggregates FindSYNs.
func exhaustiveResolve(a, b *trajectory.Aware, p Params) (Estimate, bool) {
	s := NewSearcher(a, b, p)
	defer s.Release()
	syns := exhaustiveFindSYNs(s, p.NumSYN)
	if len(syns) == 0 {
		return Estimate{}, false
	}
	est := Estimate{SYNs: syns}
	dists := make([]float64, len(syns))
	bestI := 0
	for i, syn := range syns {
		dists[i] = syn.RelativeDistance(a, b)
		if syn.Score > syns[bestI].Score {
			bestI = i
		}
	}
	est.Score = syns[bestI].Score
	switch p.Aggregation {
	case SingleSYN:
		est.Distance = dists[bestI]
	case MeanAgg:
		est.Distance = stats.Mean(dists)
	case SelectiveAgg:
		est.Distance = stats.SelectiveMean(dists)
	}
	return est, true
}

type resolveOutcome struct {
	Est Estimate
	OK  bool
}

func resolveWith(a, b *trajectory.Aware, p Params, tk *Tracker) resolveOutcome {
	s := NewSearcher(a, b, p)
	defer s.Release()
	if tk != nil {
		s.SetTracker(tk)
	}
	est, ok := s.Resolve(Sequential)
	return resolveOutcome{est, ok}
}

// TestNoSYNCorpusMatchesExhaustive pins Searcher.Resolve — cold, warm on
// its own previous tick, and warm on hints that point at the wrong place —
// to an exhaustive reference search over a corpus built around the no-SYN
// case: unrelated contexts where no placement can reach the coherency
// threshold, plus related corridors at full and §V-C short-window lengths
// so the accepting side of the threshold is held to the same standard.
func TestNoSYNCorpusMatchesExhaustive(t *testing.T) {
	f := field(t)
	unrelated := func(seedA, seedB int64, n int) (*trajectory.Aware, *trajectory.Aware) {
		a, _ := plantedPair(seedA, n, 0, 1.0)
		b, _ := plantedPair(seedB, n, 0, 1.0)
		return a, b
	}
	type pair struct {
		name     string
		a, b     *trajectory.Aware
		wantSYNs bool // false: the corpus entry must be a no-SYN pair
	}
	var corpus []pair
	add := func(name string, a, b *trajectory.Aware, wantSYNs bool) {
		corpus = append(corpus, pair{name, a, b, wantSYNs})
	}
	{
		a, b := unrelated(301, 302, 1000)
		add("synthetic-unrelated-1km", a, b, false)
		a, b = unrelated(303, 304, 400)
		add("synthetic-unrelated-400m", a, b, false)
		a, b = unrelated(305, 306, 60)
		add("synthetic-unrelated-short", a, b, false)
		add("road-unrelated-400m",
			awareOnRoad(f, 500, 700, 400, 1000, 12, 31), awareOnRoad(f, 500, 2500, 400, 1000, 12, 32), false)
		add("road-unrelated-short",
			awareOnRoad(f, 500, 700, 60, 1000, 12, 33), awareOnRoad(f, 500, 2500, 60, 1000, 12, 34), false)
		a, b = pairOnRoad(t, 25, 400)
		add("road-related-400m", a, b, true)
		a, b = pairOnRoad(t, 10, 60)
		add("road-related-short", a, b, true)
		a, b = plantedPair(307, 1000, 40, 1.5)
		add("synthetic-related-1km", a, b, true)
	}

	single := DefaultParams()
	single.SingleSided = true
	params := map[string]Params{"default": DefaultParams(), "single-sided": single}

	for _, c := range corpus {
		for pname, p := range params {
			want, wantOK := exhaustiveResolve(c.a, c.b, p)
			if wantOK != c.wantSYNs && pname == "default" {
				t.Fatalf("%s: corpus entry resolves ok=%v, built to be %v", c.name, wantOK, c.wantSYNs)
			}
			wantOut := resolveOutcome{want, wantOK}
			check := func(mode string, got resolveOutcome) {
				t.Helper()
				if !reflect.DeepEqual(got, wantOut) {
					t.Errorf("%s/%s/%s: Resolve = %+v, exhaustive reference = %+v", c.name, pname, mode, got, wantOut)
				}
			}
			check("cold", resolveWith(c.a, c.b, p, nil))

			// Warm on its own previous tick: the first resolve seeds the
			// tracker, the second pivots on it.
			tk := NewTracker(0)
			check("tracked-first", resolveWith(c.a, c.b, p, tk))
			check("tracked-repeat", resolveWith(c.a, c.b, p, tk))

			// Warm on hints recorded for some other pair: every segment
			// carries a delta that may land in range, out of range, or on
			// a decoy, and the scan must still match the reference.
			for _, delta := range []int{0, 25, -40, 150, 5000} {
				tk := NewTracker(0)
				for seg := 0; seg < p.NumSYN; seg++ {
					tk.observe(seg, SYNPoint{IdxA: 0, IdxB: delta + 3*seg}, true)
				}
				check("stale-hint", resolveWith(c.a, c.b, p, tk))
			}
		}
	}
}

// TestNoSYNCorpusGrowingContexts replays a tracked pair over three ticks of
// growing context (earlier ticks see time-prefixes of the final
// trajectories), so warm resolves run on hints recorded against a shorter
// context, and checks every tick against the exhaustive reference.
func TestNoSYNCorpusGrowingContexts(t *testing.T) {
	f := field(t)
	related := func() (*trajectory.Aware, *trajectory.Aware) { return pairOnRoad(t, 30, 500) }
	unrelated := func() (*trajectory.Aware, *trajectory.Aware) {
		return awareOnRoad(f, 500, 900, 500, 1000, 12, 41), awareOnRoad(f, 500, 2300, 500, 1000, 12, 42)
	}
	p := DefaultParams()
	for name, build := range map[string]func() (*trajectory.Aware, *trajectory.Aware){"related": related, "unrelated": unrelated} {
		a, b := build()
		_, tEnd := a.TimeSpan()
		tk := NewTracker(0)
		for tick, back := range []float64{20, 8, 0} {
			at, bt := a.PrefixUntil(tEnd-back), b.PrefixUntil(tEnd-back)
			want, wantOK := exhaustiveResolve(at, bt, p)
			if got := resolveWith(at, bt, p, tk); !reflect.DeepEqual(got, resolveOutcome{want, wantOK}) {
				t.Errorf("%s tick %d: Resolve = %+v, exhaustive reference = %+v", name, tick, got, resolveOutcome{want, wantOK})
			}
		}
	}
}
