package core

import (
	"math"
	"math/rand"
	"testing"

	"rups/internal/stats"
	"rups/internal/trajectory"
)

// newMatrixIndex builds an index over plain rows.
func newMatrixIndex(rows [][]float64) *matrixIndex {
	return newMatrixIndexArena(rows, rowStatsOf(rows), nil)
}

// rowStatsOf accumulates each row's RowStat the way trajectory.RowStats
// does: present cells, in column order, from 0.
func rowStatsOf(rows [][]float64) []trajectory.RowStat {
	st := make([]trajectory.RowStat, len(rows))
	for i, row := range rows {
		for _, v := range row {
			if !stats.IsMissing(v) {
				st[i].Sum += v
				st[i].N++
			}
		}
	}
	return st
}

// newMatrixIndexMultiPass is the reference dense builder: a separate pass
// for the missing scan, each row sum, the shifted prefix tables and the
// strided column means. newMatrixIndexArena must reproduce it bit for bit.
func newMatrixIndexMultiPass(rows [][]float64) *matrixIndex {
	idx := &matrixIndex{rows: rows, k: len(rows), dense: true}
	if idx.k == 0 {
		return idx
	}
	idx.m = len(rows[0])
	for i := 0; i < idx.k; i++ {
		for _, v := range rows[i] {
			if stats.IsMissing(v) {
				idx.dense = false
			}
		}
	}
	idx.col = columnMeansInto(rows, make([]float64, idx.m))
	if !idx.dense {
		idx.missPre = make([][]int32, idx.k)
		for i := 0; i < idx.k; i++ {
			mp := make([]int32, idx.m+1)
			for j, v := range rows[i] {
				mp[j+1] = mp[j]
				if stats.IsMissing(v) {
					mp[j+1]++
				}
			}
			idx.missPre[i] = mp
		}
		return idx
	}
	idx.shift = make([]float64, idx.k)
	idx.shifted = make([][]float64, idx.k)
	idx.preSum = make([][]float64, idx.k)
	idx.preSq = make([][]float64, idx.k)
	for i := 0; i < idx.k; i++ {
		var sum float64
		for _, v := range rows[i] {
			sum += v
		}
		c := 0.0
		if idx.m > 0 {
			c = sum / float64(idx.m)
		}
		idx.shift[i] = c
		sh := make([]float64, idx.m)
		ps := make([]float64, idx.m+1)
		pq := make([]float64, idx.m+1)
		for j, v := range rows[i] {
			d := v - c
			sh[j] = d
			ps[j+1] = ps[j] + d
			pq[j+1] = pq[j] + d*d
		}
		idx.shifted[i] = sh
		idx.preSum[i] = ps
		idx.preSq[i] = pq
	}
	var colSum float64
	for _, v := range idx.col {
		colSum += v
	}
	if idx.m > 0 {
		idx.colShift = colSum / float64(idx.m)
	}
	idx.colShifted = make([]float64, idx.m)
	idx.colPre = make([]float64, idx.m+1)
	idx.colPreSq = make([]float64, idx.m+1)
	for j, v := range idx.col {
		d := v - idx.colShift
		idx.colShifted[j] = d
		idx.colPre[j+1] = idx.colPre[j] + d
		idx.colPreSq[j+1] = idx.colPreSq[j] + d*d
	}
	return idx
}

// sameBits reports whether two float slices are identical bit for bit
// (NaN-valued missing markers included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameIndex compares every field of two indexes bitwise.
func requireSameIndex(t *testing.T, name string, got, want *matrixIndex) {
	t.Helper()
	if got.k != want.k || got.m != want.m || got.dense != want.dense {
		t.Fatalf("%s: shape k=%d m=%d dense=%v, want k=%d m=%d dense=%v",
			name, got.k, got.m, got.dense, want.k, want.m, want.dense)
	}
	if len(got.missPre) != len(want.missPre) {
		t.Fatalf("%s: %d missing-count rows, want %d", name, len(got.missPre), len(want.missPre))
	}
	for i := range want.missPre {
		for j := range want.missPre[i] {
			if got.missPre[i][j] != want.missPre[i][j] {
				t.Fatalf("%s: missPre[%d][%d] = %d, want %d", name, i, j, got.missPre[i][j], want.missPre[i][j])
			}
		}
	}
	for _, f := range []struct {
		field     string
		got, want []float64
	}{
		{"shift", got.shift, want.shift},
		{"col", got.col, want.col},
		{"colShifted", got.colShifted, want.colShifted},
		{"colPre", got.colPre, want.colPre},
		{"colPreSq", got.colPreSq, want.colPreSq},
		{"colShift", []float64{got.colShift}, []float64{want.colShift}},
	} {
		if !sameBits(f.got, f.want) {
			t.Fatalf("%s: %s differs from the multi-pass builder", name, f.field)
		}
	}
	for _, f := range []struct {
		field     string
		got, want [][]float64
	}{
		{"shifted", got.shifted, want.shifted},
		{"preSum", got.preSum, want.preSum},
		{"preSq", got.preSq, want.preSq},
	} {
		if len(f.got) != len(f.want) {
			t.Fatalf("%s: %s has %d rows, want %d", name, f.field, len(f.got), len(f.want))
		}
		for i := range f.want {
			if !sameBits(f.got[i], f.want[i]) {
				t.Fatalf("%s: %s row %d differs from the multi-pass builder", name, f.field, i)
			}
		}
	}
}

// TestMatrixIndexMatchesMultiPass holds the one-pass builder to the
// multi-pass reference, bitwise, on random dense matrices at RSSI scale,
// partly missing ones, degenerate shapes, and the indexes a Searcher
// builds from memoized snapshot statistics of road contexts.
func TestMatrixIndexMatchesMultiPass(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	randRSSI := func(k, m int) [][]float64 {
		rows := make([][]float64, k)
		for i := range rows {
			rows[i] = make([]float64, m)
			for j := range rows[i] {
				rows[i][j] = -110 + 50*rng.Float64()
			}
		}
		return rows
	}
	for _, sh := range [][2]int{{0, 0}, {3, 0}, {1, 1}, {1, 7}, {45, 85}, {45, 1000}, {194, 333}, {8, 1203}} {
		rows := randRSSI(sh[0], sh[1])
		requireSameIndex(t, "dense", newMatrixIndex(rows), newMatrixIndexMultiPass(rows))
		// The arena path must write every cell it later reads: build once
		// on a dirtied arena and compare again.
		ar := &arena{buf: make([]float64, 8*(sh[0]+1)*(sh[1]+1))}
		for i := range ar.buf {
			ar.buf[i] = math.NaN()
		}
		requireSameIndex(t, "dense arena", newMatrixIndexArena(rows, rowStatsOf(rows), ar), newMatrixIndexMultiPass(rows))
	}
	for _, frac := range []float64{0.001, 0.2, 1} {
		rows := randRSSI(12, 240)
		for i := range rows {
			for j := range rows[i] {
				if rng.Float64() < frac {
					rows[i][j] = stats.Missing
				}
			}
		}
		requireSameIndex(t, "sparse", newMatrixIndex(rows), newMatrixIndexMultiPass(rows))
	}

	p := DefaultParams()
	a, b := pairOnRoad(t, 40, 1300)
	// One missing cell on a channel A's window selects sends B's index
	// down the sparse branch.
	b.SetPower(a.TopChannels(1)[0], 700, stats.Missing)
	for _, tc := range []struct {
		name string
		a, b *trajectory.Aware
	}{
		{"live", a, b},
		{"snapshot", a.Snapshot(), b.Snapshot()},
		{"prefix snapshot", a.PrefixUntil(1060).Snapshot(), b.PrefixUntil(1060).Snapshot()},
	} {
		s := NewSearcher(tc.a, tc.b, p)
		requireSameIndex(t, tc.name+" A", s.idxA, newMatrixIndexMultiPass(s.idxA.rows))
		requireSameIndex(t, tc.name+" B", s.idxB, newMatrixIndexMultiPass(s.idxB.rows))
		if !s.idxA.dense || s.idxB.dense {
			t.Fatalf("%s: dense A=%v B=%v, want a dense A and a sparse B", tc.name, s.idxA.dense, s.idxB.dense)
		}
		s.Release()
	}
}
