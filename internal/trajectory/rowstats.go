package trajectory

import (
	"fmt"
	"sync"

	"rups/internal/gsm"
	"rups/internal/stats"
)

// RowStat is one channel row's missing-skipping accumulation: Sum adds the
// row's present cells one by one in column order, starting from 0, and N
// counts them. Consumers that need a row's sum or mean bit for bit as a
// plain in-order loop would produce it — the searcher's checking-window
// ranking and its dense index shift — read it from here.
type RowStat struct {
	Sum float64
	N   int
}

// Mean returns the mean of the row's present cells; ok is false when every
// cell is missing.
func (r RowStat) Mean() (mean float64, ok bool) {
	if r.N == 0 {
		return 0, false
	}
	return r.Sum / float64(r.N), true
}

// RowStats holds one RowStat per channel, indexed by channel.
type RowStats []RowStat

// Top returns the indices of the k channels with the highest mean RSSI —
// the paper's checking-window width selection (§V-A uses the top 45
// channels). All-missing channels rank below the noise floor. Ties keep
// the lower channel first.
func (s RowStats) Top(k int) []int {
	if k <= 0 {
		panic(fmt.Sprintf("trajectory: top-%d channels out of range", k))
	}
	if k > len(s) {
		k = len(s)
	}
	type chMean struct {
		ch   int
		mean float64
	}
	ms := make([]chMean, len(s))
	for ch, r := range s {
		m, ok := r.Mean()
		if !ok { // all missing: rank below the floor
			m = gsm.NoiseFloorDBm - 1
		}
		ms[ch] = chMean{ch, m}
	}
	// Partial selection sort: k is small (≤194).
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(ms); j++ {
			if ms[j].mean > ms[best].mean {
				best = j
			}
		}
		ms[i], ms[best] = ms[best], ms[i]
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ms[i].ch
	}
	return out
}

// TopAudible returns the Top ranking trimmed to channels whose mean RSSI
// exceeds minDBm — sparse environments (suburbs) may not have k audible
// carriers, and padding the checking window with noise-floor rows only
// dilutes the trajectory correlation. At least minKeep channels are always
// returned (the strongest ones), so the window never collapses.
func (s RowStats) TopAudible(k int, minDBm float64, minKeep int) []int {
	ranked := s.Top(k)
	if minKeep > len(ranked) {
		minKeep = len(ranked)
	}
	keep := len(ranked)
	for keep > minKeep {
		if m, ok := s[ranked[keep-1]].Mean(); ok && m > minDBm {
			break
		}
		keep--
	}
	return ranked[:keep]
}

// RowStats returns every channel's RowStat over the trajectory. On a
// sealed trajectory (a snapshot or a Tail view of one) the result is
// memoized and shared: it is computed once per snapshot and view length,
// whichever goroutine asks first, and callers must not modify it. A live
// trajectory may still change, so it is recomputed on every call.
func (a *Aware) RowStats() RowStats {
	if a.memo != nil {
		return a.memo.all(a)
	}
	out := make(RowStats, a.pw.width)
	for ch := range out {
		out[ch] = a.rowStat(ch)
	}
	return out
}

// RowStatsOf returns the RowStat of each listed channel, in list order, in
// a fresh slice. A sealed trajectory reads (and fills) its memo; a live one
// computes just the listed rows.
func (a *Aware) RowStatsOf(channels []int) []RowStat {
	for _, ch := range channels {
		if ch < 0 || ch >= a.pw.width {
			panic(fmt.Sprintf("trajectory: channel %d out of range", ch))
		}
	}
	if a.memo != nil {
		return a.memo.of(a, channels)
	}
	out := make([]RowStat, len(channels))
	for i, ch := range channels {
		out[i] = a.rowStat(ch)
	}
	return out
}

// rowStat accumulates channel ch's present cells in column order.
func (a *Aware) rowStat(ch int) RowStat {
	var r RowStat
	a.pw.rowSegs(ch, 0, a.Len(), func(seg []float64, _ int) {
		for _, v := range seg {
			if !stats.IsMissing(v) {
				r.Sum += v
				r.N++
			}
		}
	})
	return r
}

// statsMemo is a sealed snapshot's row-statistics cache, shared with its
// Tail views. Every such view ends at the snapshot's last column, so a
// view's length identifies its column range; core clips each context to
// one fixed length, so a snapshot holds at most two entries in practice.
// Rows are filled lazily, per channel: a snapshot that only ever serves as
// the target side of a search pays for the rows its peers select, not for
// all of them. mu orders every fill before every read of the filled cell.
type statsMemo struct {
	mu      sync.Mutex
	entries []*memoEntry
}

type memoEntry struct {
	n     int
	stats RowStats
	have  []bool // have[ch]: stats[ch] is filled
}

// entry returns the entry for a's length, creating it. Callers hold mu.
func (m *statsMemo) entry(a *Aware) *memoEntry {
	for _, e := range m.entries {
		if e.n == a.Len() {
			return e
		}
	}
	e := &memoEntry{n: a.Len(), stats: make(RowStats, a.pw.width), have: make([]bool, a.pw.width)}
	m.entries = append(m.entries, e)
	return e
}

// fill computes channel ch into e unless it is already there. Callers hold
// mu.
func (e *memoEntry) fill(a *Aware, ch int) {
	if !e.have[ch] {
		e.stats[ch] = a.rowStat(ch)
		e.have[ch] = true
	}
}

// all returns the complete statistics for a's column range. Once every
// channel is filled nothing writes the table again, so callers may read
// it without the lock.
func (m *statsMemo) all(a *Aware) RowStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entry(a)
	for ch := range e.stats {
		e.fill(a, ch)
	}
	return e.stats
}

// of copies the listed channels' statistics out of the memo, filling any
// that are missing.
func (m *statsMemo) of(a *Aware, channels []int) []RowStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entry(a)
	out := make([]RowStat, len(channels))
	for i, ch := range channels {
		e.fill(a, ch)
		out[i] = e.stats[ch]
	}
	return out
}
