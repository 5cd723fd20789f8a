package core

// DefaultWarmRadiusM is the drift tolerance for classifying a warm-started
// segment as a hit: how far (in metres) a pair's SYN offset may move
// between consecutive ticks and still count as tracked. At urban speeds
// and second-scale resolve intervals the relative offset moves a few
// metres per tick, so 25 m is generous without masking a lost lock.
const DefaultWarmRadiusM = 25

// Tracker carries one pair's warm-start state across resolves, keyed by
// segment ordinal (the i-th NumSYN segment). Each hint is the previous
// tick's SYN index delta IdxB − IdxA — a quantity stable under appends,
// since both indexes are global marks counted from each trajectory's
// start. The searcher turns a hint into a predicted window placement per
// direction and pivots that direction's exact bounded scan on it; the
// other direction then scans floored at the first one's score (see
// Searcher.scanSegment). A hint only reorders and prunes evaluation, so a
// wrong hint costs time, never correctness: the result is always
// identical to the cold oracle's, and there is no rescan.
//
// State machine per segment:
//
//	no hint ──(SYN accepted)──▶ tracked ──(SYN accepted)──▶ tracked
//	tracked ──(segment rejected: coherency loss, heading gate)──▶ no hint
//	tracked ──(segment unplannable: context too short)──▶ no hint
//	any ──(Tracker.Reset: staleness expiry, pair re-keyed)──▶ no hint
//
// A Tracker is owned by one engine pair slot and must not be shared across
// goroutines within a batch; the engine serializes all use per pair.
type Tracker struct {
	radius int
	hints  map[int]int
}

// NewTracker builds a tracker with the given hit-classification radius in
// metres (DefaultWarmRadiusM when ≤ 0).
func NewTracker(radiusM int) *Tracker {
	if radiusM <= 0 {
		radiusM = DefaultWarmRadiusM
	}
	return &Tracker{radius: radiusM, hints: make(map[int]int)}
}

// hint returns the previous tick's SYN delta for a segment ordinal.
func (t *Tracker) hint(seg int) (delta int, ok bool) {
	delta, ok = t.hints[seg]
	return delta, ok
}

// forget drops one segment ordinal's hint. The searcher calls it for
// ordinals the current tick could not even plan (context too short): an
// unplanned segment is never scanned or re-observed, so its hint would
// otherwise survive arbitrarily many ticks without refresh.
func (t *Tracker) forget(seg int) {
	delete(t.hints, seg)
}

// observe records a segment's outcome: an accepted SYN refreshes the hint,
// a rejection drops it, so the next tick pivots that segment on the range
// midpoint again (coherency loss must not keep steering future scans
// toward a stale lock).
func (t *Tracker) observe(seg int, syn SYNPoint, ok bool) {
	if !ok {
		delete(t.hints, seg)
		return
	}
	t.hints[seg] = syn.IdxB - syn.IdxA
}
