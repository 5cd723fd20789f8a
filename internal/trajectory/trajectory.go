// Package trajectory defines the two trajectory representations at the
// heart of RUPS (paper §IV-B/C):
//
//   - Geo, the geographical trajectory: one (θᵢ, tᵢ) mark per metre
//     travelled, estimated by dead reckoning;
//   - Aware, the GSM-aware trajectory: Geo plus the power matrix binding a
//     power vector (RSSI over channels) to every metre mark, with missing
//     channels (unscanned because the vehicle outran the scan) represented
//     explicitly and fillable by linear interpolation over distance.
//
// Convention: index i is the i-th metre since recording began, so the most
// recent metre is the *last* index. Sliding-window searches take "the most
// recent segment" from the tail.
//
// The power matrix is stored in sealed column chunks (see chunk.go): a
// Snapshot shares chunk storage by reference instead of deep-copying it, so
// the engine's per-tick admission copies cost O(marks) for the geometry
// plus a pointer slice — not O(channels × marks) for the cells. Cell access
// goes through At/SetPower/CopyRowInto; the matrix is no longer an exported
// field, because storage sharing is only safe when every in-place write is
// funnelled through the copy-on-write barrier.
//
// A snapshot is sealed: it never changes, so it also memoizes its
// per-channel row statistics (see rowstats.go) for every searcher built on it.
package trajectory

import (
	"fmt"

	"rups/internal/gsm"
	"rups/internal/stats"
)

// GeoMark is one per-metre element of a geographical trajectory.
type GeoMark struct {
	Theta float64 // estimated heading at this metre, rad clockwise from north
	T     float64 // timestamp at which this metre was completed, s
}

// Geo is a geographical trajectory: Marks[i] is the mark at the i-th metre.
type Geo struct {
	Marks []GeoMark
}

// Len returns the trajectory length in metres (number of marks).
func (g Geo) Len() int { return len(g.Marks) }

// Tail returns the most recent n marks (all of them if shorter). The
// returned Geo shares backing storage with g.
func (g Geo) Tail(n int) Geo {
	if n >= len(g.Marks) {
		return Geo{Marks: g.Marks}
	}
	return Geo{Marks: g.Marks[len(g.Marks)-n:]}
}

// Sample is one scanner reading to be bound to the trajectory.
type Sample struct {
	T    float64 // measurement time
	Ch   int     // channel index
	RSSI float64 // dBm
}

// Aware is a GSM-aware trajectory: the geographical trajectory with a
// channel-major power matrix over chunked storage. Cell (ch, i) is the RSSI
// (dBm) of channel ch at metre i, or stats.Missing when that channel was
// not scanned near that metre — read it with At, write it with SetPower.
type Aware struct {
	Geo Geo
	pw  powStore
	// memo is non-nil exactly on sealed trajectories — snapshots and the
	// Tail views of them — and is shared by a snapshot and its views.
	memo *statsMemo
}

// NewAware allocates an all-missing power matrix of the standard GSM width
// for the given geographical trajectory.
func NewAware(g Geo) *Aware { return NewAwareWidth(g, gsm.NumChannels) }

// NewAwareWidth allocates an all-missing power matrix with an arbitrary
// channel count — used by the multi-band extension (GSM + FM), where the
// trajectory's rows concatenate several bands.
func NewAwareWidth(g Geo, width int) *Aware {
	if width <= 0 {
		panic(fmt.Sprintf("trajectory: invalid width %d", width))
	}
	return &Aware{Geo: g, pw: newPowStore(width, len(g.Marks))}
}

// Len returns the trajectory length in metres.
func (a *Aware) Len() int { return len(a.Geo.Marks) }

// Width returns the channel count of the power matrix.
func (a *Aware) Width() int { return a.pw.width }

// At returns the power cell of channel ch at metre i. It panics when the
// cell is out of range.
func (a *Aware) At(ch, i int) float64 {
	a.pw.checkCell(ch, i)
	return a.pw.at(ch, i)
}

// SetPower writes the power cell of channel ch at metre i. Writes below a
// snapshot's sealed watermark privatize the affected chunk first
// (copy-on-write), so snapshots never observe them; views do, sharing the
// live chunk table. It panics on out-of-range cells and on views.
func (a *Aware) SetPower(ch, i int, v float64) {
	a.pw.checkCell(ch, i)
	a.pw.set(ch, i, v)
}

// Bind associates time-domain scanner samples with the geographical
// trajectory (paper §IV-C): the samples taken during (t_{i-1}, t_i] belong
// to metre i. Multiple readings of the same channel within one metre are
// averaged. Samples outside the trajectory's time span are dropped.
func Bind(g Geo, samples []Sample) *Aware {
	return BindWidth(g, samples, gsm.NumChannels)
}

// BindWidth is Bind with an arbitrary channel count (multi-band).
func BindWidth(g Geo, samples []Sample, width int) *Aware {
	a := NewAwareWidth(g, width)
	if len(g.Marks) == 0 {
		return a
	}
	counts := make(map[[2]int]int)
	mark := 0
	for _, s := range samples {
		if s.Ch < 0 || s.Ch >= width {
			panic(fmt.Sprintf("trajectory: sample channel %d out of range", s.Ch))
		}
		// Samples must be fed in time order for the single forward sweep.
		for mark < len(g.Marks) && g.Marks[mark].T < s.T {
			mark++
		}
		if mark >= len(g.Marks) {
			break // beyond the last completed metre
		}
		key := [2]int{s.Ch, mark}
		if counts[key] == 0 {
			a.pw.set(s.Ch, mark, s.RSSI)
		} else {
			// Running average of repeated readings.
			n := float64(counts[key])
			a.pw.set(s.Ch, mark, (a.pw.at(s.Ch, mark)*n+s.RSSI)/(n+1))
		}
		counts[key]++
	}
	if t := trajTel.Get(); t != nil {
		t.marksBound.Add(uint64(len(g.Marks)))
		t.measured.Add(uint64(len(counts)))
	}
	return a
}

// Append extends the live trajectory by one metre mark with its power
// vector (stats.Missing for unscanned channels); len(power) must match the
// matrix width. The new column lands above every sealed watermark, so
// readers holding a Snapshot never race it; readers holding views (Tail,
// PrefixUntil) still do. Appending through a view panics.
func (a *Aware) Append(mark GeoMark, power []float64) {
	if len(power) != a.pw.width {
		panic(fmt.Sprintf("trajectory: Append power width %d, matrix width %d",
			len(power), a.pw.width))
	}
	a.Geo.Marks = append(a.Geo.Marks, mark)
	a.pw.appendCol(power)
}

// AppendColumns bulk-extends the trajectory: rows is channel-major with one
// row per channel, each len(marks) long. Equivalent to Append per mark but
// amortized over chunk segments — the V2V delta-application path.
func (a *Aware) AppendColumns(marks []GeoMark, rows [][]float64) {
	if len(rows) != a.pw.width {
		panic(fmt.Sprintf("trajectory: AppendColumns with %d rows, matrix width %d",
			len(rows), a.pw.width))
	}
	a.pw.mutable()
	for ch, row := range rows {
		if len(row) != len(marks) {
			panic(fmt.Sprintf("trajectory: AppendColumns row %d has %d columns, want %d",
				ch, len(row), len(marks)))
		}
		_ = ch
	}
	base := a.pw.n
	a.Geo.Marks = append(a.Geo.Marks, marks...)
	// Grow the chunk table first, then blit each row chunk-segment-wise.
	need := base + len(marks)
	for (a.pw.off+need+chunkMask)>>chunkShift > len(a.pw.chunks) {
		a.pw.chunks = append(a.pw.chunks, newPowChunk(a.pw.width))
	}
	a.pw.n = need
	for ch, row := range rows {
		a.pw.setRow(ch, base, row)
	}
}

// MissingFrac returns the fraction of matrix entries that are missing —
// the paper's missing-channel severity, which grows with vehicle speed and
// shrinks with the number of scanning radios. A matrix with no cells at all
// (no marks, or a zero-channel power matrix) has nothing missing: the
// fraction is 0, never 0/0.
func (a *Aware) MissingFrac() float64 {
	total := a.pw.width * a.Len()
	if total == 0 {
		return 0
	}
	missing := 0
	for ch := 0; ch < a.pw.width; ch++ {
		a.pw.rowSegs(ch, 0, a.Len(), func(seg []float64, _ int) {
			for _, v := range seg {
				if stats.IsMissing(v) {
					missing++
				}
			}
		})
	}
	return float64(missing) / float64(total)
}

// Interpolate fills missing entries channel by channel with linear
// interpolation between the nearest valid readings over distance (paper
// §IV-C: "missing channels are estimated by linearly interpolating between
// neighbouring power vectors over distance"). Leading and trailing gaps are
// extended from the nearest valid value; channels never scanned stay
// missing.
func (a *Aware) Interpolate() {
	a.pw.mutable()
	filled := 0
	row := make([]float64, a.Len())
	for ch := 0; ch < a.pw.width; ch++ {
		a.pw.copyRow(ch, 0, row)
		if f := interpolateRow(row); f > 0 {
			filled += f
			a.pw.setRow(ch, 0, row)
		}
	}
	if t := trajTel.Get(); t != nil {
		t.interpolated.Add(uint64(filled))
	}
}

// interpolateRow fills missing runs in place and reports how many cells it
// filled.
func interpolateRow(row []float64) int {
	filled := 0
	prev := -1 // index of last valid value
	for i := 0; i <= len(row); i++ {
		if i < len(row) && stats.IsMissing(row[i]) {
			continue
		}
		if i == len(row) {
			// Trailing gap: extend the last valid value.
			if prev >= 0 {
				for j := prev + 1; j < len(row); j++ {
					row[j] = row[prev]
					filled++
				}
			}
			break
		}
		if prev < 0 {
			// Leading gap: extend backwards.
			for j := 0; j < i; j++ {
				row[j] = row[i]
				filled++
			}
		} else if i > prev+1 {
			// Interior gap: linear interpolation.
			span := float64(i - prev)
			for j := prev + 1; j < i; j++ {
				f := float64(j-prev) / span
				row[j] = row[prev]*(1-f) + row[i]*f
				filled++
			}
		}
		prev = i
	}
	return filled
}

// Window returns a copy of the power sub-matrix of the metres
// [start, start+length). It panics when the range is out of bounds. Unlike
// the pre-chunk layout this is a materialized copy, not a view — chunked
// rows are not contiguous, so callers needing live aliasing use Tail or
// PrefixUntil (whole-trajectory views) instead.
func (a *Aware) Window(start, length int) [][]float64 {
	if start < 0 || length <= 0 || start+length > a.Len() {
		panic(fmt.Sprintf("trajectory: window [%d,%d) out of range 0..%d",
			start, start+length, a.Len()))
	}
	w := make([][]float64, a.pw.width)
	back := make([]float64, a.pw.width*length)
	for ch := 0; ch < a.pw.width; ch++ {
		row := back[ch*length : (ch+1)*length : (ch+1)*length]
		a.pw.copyRow(ch, start, row)
		w[ch] = row
	}
	return w
}

// CopyRowInto copies channel ch's full row (metres [0, Len)) into dst,
// which must be at least Len long. The hot-path row materializer: the
// searcher gathers its checking-window rows through this into pooled
// arenas.
func (a *Aware) CopyRowInto(ch int, dst []float64) {
	if ch < 0 || ch >= a.pw.width {
		panic(fmt.Sprintf("trajectory: channel %d out of range", ch))
	}
	a.pw.copyRow(ch, 0, dst[:a.Len()])
}

// RowCopy returns a fresh copy of channel ch's cells over metres [lo, hi).
func (a *Aware) RowCopy(ch, lo, hi int) []float64 {
	if ch < 0 || ch >= a.pw.width || lo < 0 || hi < lo || hi > a.Len() {
		panic(fmt.Sprintf("trajectory: row copy (%d, [%d,%d)) out of range", ch, lo, hi))
	}
	dst := make([]float64, hi-lo)
	a.pw.copyRow(ch, lo, dst)
	return dst
}

// PrefixUntil returns the trajectory as known at time t: the marks
// completed no later than t (sharing storage). Evaluation uses it to replay
// queries against exactly the context a vehicle would have had.
func (a *Aware) PrefixUntil(t float64) *Aware {
	n := 0
	for n < a.Len() && a.Geo.Marks[n].T <= t {
		n++
	}
	return &Aware{Geo: Geo{Marks: a.Geo.Marks[:n]}, pw: a.pw.viewOf(0, n)}
}

// Tail returns the most recent n marks as an Aware sharing storage with a.
//
// Aliasing contract: the returned trajectory is a *view* — its Geo.Marks
// and power chunks alias a's live storage (PrefixUntil returns the same
// kind of view), so writes through the live trajectory are visible through
// it. Views are only safe to read while the live trajectory is not being
// extended or rewritten; a resolution running concurrently with trajectory
// appends through a view is a data race. Code that hands a trajectory to
// another goroutine (the batch-resolution engine, trackers) must decouple
// first with Snapshot.
func (a *Aware) Tail(n int) *Aware {
	if n >= a.Len() {
		return a
	}
	start := a.Len() - n
	return &Aware{Geo: a.Geo.Tail(n), pw: a.pw.viewOf(start, a.Len()), memo: a.memo}
}

// TopChannels returns the indices of the k channels with the highest mean
// RSSI over the trajectory — the paper's checking-window width selection
// (§V-A uses the top 45 channels). Missing entries are skipped in the mean.
func (a *Aware) TopChannels(k int) []int { return a.RowStats().Top(k) }

// TopAudibleChannels returns the TopChannels ranking trimmed to channels
// whose mean RSSI exceeds minDBm (see RowStats.TopAudible).
func (a *Aware) TopAudibleChannels(k int, minDBm float64, minKeep int) []int {
	return a.RowStats().TopAudible(k, minDBm, minKeep)
}

// Select returns a copy of the power matrix restricted to the given channel
// rows. Like Window, this materializes: chunked rows are not contiguous.
func (a *Aware) Select(channels []int) [][]float64 {
	w := make([][]float64, len(channels))
	n := a.Len()
	back := make([]float64, len(channels)*n)
	for i, ch := range channels {
		if ch < 0 || ch >= a.pw.width {
			panic(fmt.Sprintf("trajectory: channel %d out of range", ch))
		}
		row := back[i*n : (i+1)*n : (i+1)*n]
		a.pw.copyRow(ch, 0, row)
		w[i] = row
	}
	return w
}

// DistanceBetween returns the metres travelled between mark i and the
// trajectory's end — the d-values of the paper's relative-distance
// resolution (§IV-E). By the per-metre construction this is simply the
// index distance.
func (a *Aware) DistanceBetween(mark int) float64 {
	if mark < 0 || mark >= a.Len() {
		panic(fmt.Sprintf("trajectory: mark %d out of range", mark))
	}
	return MetresFromIndex(a.Len()-1) - MetresFromIndex(mark)
}

// TimeSpan returns the first and last mark timestamps.
func (a *Aware) TimeSpan() (t0, t1 float64) {
	if a.Len() == 0 {
		return 0, 0
	}
	return a.Geo.Marks[0].T, a.Geo.Marks[a.Len()-1].T
}

// Clone deep-copies the trajectory into fresh, owned storage. Unlike
// Snapshot it shares nothing at all — use it when the copy must itself be
// mutable (appending a synced copy, test fixtures).
func (a *Aware) Clone() *Aware {
	g := Geo{Marks: append([]GeoMark(nil), a.Geo.Marks...)}
	return &Aware{Geo: g, pw: a.pw.clone()}
}

// Snapshot returns an interned read-only copy of the trajectory as it
// stands now — the copy-on-read admission boundary for concurrent
// resolution. The geometry marks are copied, but the power cells are
// *shared*: the snapshot references the live chunk tiles and seals them
// under each chunk's watermark, so readers holding it never race appends
// (new columns land above the watermark) and never observe in-place
// rewrites (those privatize the chunk first). Snapshot itself must run on
// the goroutine owning the trajectory — the engine admits at a quiescent
// point; only the *reads* afterwards may be concurrent.
//
// A sealed trajectory (a snapshot, or a Tail view of one) can never change,
// so it is its own snapshot: Snapshot returns it unchanged, copies nothing
// and counts nothing.
func (a *Aware) Snapshot() *Aware {
	if a.memo != nil {
		return a
	}
	marks := append([]GeoMark(nil), a.Geo.Marks...)
	pw, ptrs := a.pw.snapshot()
	if t := trajTel.Get(); t != nil {
		t.snapshots.Inc()
		t.snapMarks.Observe(float64(a.Len()))
		t.snapSharedB.Add(uint64(8 * a.pw.width * a.Len()))
		t.snapCopiedB.Add(uint64(16*len(marks) + 8*ptrs))
	}
	return &Aware{Geo: Geo{Marks: marks}, pw: pw, memo: &statsMemo{}}
}
