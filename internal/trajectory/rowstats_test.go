package trajectory

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"rups/internal/obs"
	"rups/internal/stats"
)

// statsFixture builds a live trajectory of n marks whose rows cover every
// case the memo must get right: dense rows, partly missing rows (a hole
// straddling a chunk boundary among them) and all-missing rows.
func statsFixture(n, width int, seed int64) *Aware {
	rng := rand.New(rand.NewSource(seed))
	g := Geo{Marks: make([]GeoMark, n)}
	for i := range g.Marks {
		g.Marks[i] = GeoMark{T: float64(i)}
	}
	a := NewAwareWidth(g, width)
	for ch := 0; ch < width; ch++ {
		switch ch % 4 {
		case 3: // all missing
			continue
		case 2: // partly missing: random holes plus one across a chunk edge
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.3 || (i >= ChunkMarks-5 && i < ChunkMarks+5) {
					continue
				}
				a.SetPower(ch, i, -110+50*rng.Float64())
			}
		default: // dense
			for i := 0; i < n; i++ {
				a.SetPower(ch, i, -110+50*rng.Float64())
			}
		}
	}
	return a
}

// naiveRowStat is the plain in-order loop the memo must reproduce.
func naiveRowStat(a *Aware, ch int) RowStat {
	var r RowStat
	for i := 0; i < a.Len(); i++ {
		if v := a.At(ch, i); !stats.IsMissing(v) {
			r.Sum += v
			r.N++
		}
	}
	return r
}

func sameStat(a, b RowStat) bool {
	return a.N == b.N && math.Float64bits(a.Sum) == math.Float64bits(b.Sum)
}

// TestRowStatsMemoMatchesFresh: on a snapshot and on its Tail views —
// including chunk-straddling ones — the memoized statistics equal a fresh
// recompute on a live Clone bit for bit, and so does the channel ranking.
func TestRowStatsMemoMatchesFresh(t *testing.T) {
	const width = 24
	snap := statsFixture(1203, width, 3).Snapshot()
	views := map[string]*Aware{
		"snapshot":           snap,
		"Tail(1000)":         snap.Tail(1000),
		"Tail(1075)":         snap.Tail(1075),
		"Tail(128)":          snap.Tail(128),
		"Tail(1)":            snap.Tail(1),
		"Tail(1000).Tail(9)": snap.Tail(1000).Tail(9),
	}
	channels := []int{5, 2, 3, 0, 23, 2}
	for name, v := range views {
		if v.memo == nil {
			t.Fatalf("%s: not sealed", name)
		}
		// Lazy per-channel fill first, then the full table.
		got := v.RowStatsOf(channels)
		live := v.Clone()
		if live.memo != nil {
			t.Fatalf("%s: Clone is sealed", name)
		}
		for i, ch := range channels {
			if want := live.RowStatsOf([]int{ch})[0]; !sameStat(got[i], want) {
				t.Fatalf("%s: RowStatsOf channel %d = %+v, fresh %+v", name, ch, got[i], want)
			}
		}
		memo, fresh := v.RowStats(), live.RowStats()
		for ch := 0; ch < width; ch++ {
			if want := naiveRowStat(live, ch); !sameStat(fresh[ch], want) {
				t.Fatalf("%s: fresh channel %d = %+v, in-order loop %+v", name, ch, fresh[ch], want)
			}
			if !sameStat(memo[ch], fresh[ch]) {
				t.Fatalf("%s: memo channel %d = %+v, fresh %+v", name, ch, memo[ch], fresh[ch])
			}
		}
		if again := v.RowStats(); &again[0] != &memo[0] {
			t.Fatalf("%s: RowStats recomputed instead of reading the memo", name)
		}
		for _, k := range []int{1, 7, width} {
			g, w := v.TopAudibleChannels(k, -85, 2), live.TopAudibleChannels(k, -85, 2)
			if len(g) != len(w) {
				t.Fatalf("%s: TopAudibleChannels(%d) = %v, fresh %v", name, k, g, w)
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("%s: TopAudibleChannels(%d) = %v, fresh %v", name, k, g, w)
				}
			}
		}
	}
}

// TestRowStatsMemoConcurrentFill fills one snapshot's memo from many
// goroutines at once — full tables and lazy per-channel fills, on the
// snapshot and on a Tail view. Run under -race.
func TestRowStatsMemoConcurrentFill(t *testing.T) {
	const width = 40
	live := statsFixture(700, width, 5)
	want, wantTail := live.RowStats(), live.Tail(500).RowStats()
	snap := live.Snapshot()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, ref := snap, want
			if g%2 == 1 {
				v, ref = snap.Tail(500), wantTail
			}
			chs := []int{g, (g * 7) % width, width - 1 - g}
			for i, st := range v.RowStatsOf(chs) {
				if !sameStat(st, ref[chs[i]]) {
					t.Errorf("goroutine %d: channel %d = %+v, want %+v", g, chs[i], st, ref[chs[i]])
				}
			}
			for ch, st := range v.RowStats() {
				if !sameStat(st, ref[ch]) {
					t.Errorf("goroutine %d: channel %d = %+v, want %+v", g, ch, st, ref[ch])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSnapshotOfSealedIsItself: snapshotting a snapshot, or a Tail view of
// one, returns the receiver and records no snapshot telemetry; only the
// real snapshot of the live trajectory counts, once.
func TestSnapshotOfSealedIsItself(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()
	tel := trajTel.Get()
	live := statsFixture(300, 8, 7)

	s := live.Snapshot()
	if got := tel.snapshots.Value(); got != 1 {
		t.Fatalf("snapshots counted %d after one real snapshot, want 1", got)
	}
	copied := tel.snapCopiedB.Value()
	if s.Snapshot() != s {
		t.Fatal("Snapshot of a snapshot is not the snapshot itself")
	}
	v := s.Tail(100)
	if v.Snapshot() != v {
		t.Fatal("Snapshot of a snapshot's Tail view is not the view itself")
	}
	if got := tel.snapshots.Value(); got != 1 || tel.snapCopiedB.Value() != copied {
		t.Fatalf("re-snapshotting sealed trajectories counted: snapshots %d, copied bytes %d → %d",
			got, copied, tel.snapCopiedB.Value())
	}
	if lv := live.Tail(100); lv.Snapshot() == lv || tel.snapshots.Value() != 2 {
		t.Fatal("a live view's Snapshot must be a real, counted snapshot")
	}
}
