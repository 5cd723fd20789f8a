package serve

import (
	"testing"

	"rups/internal/engine"
	"rups/internal/obs"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// pushDelta streams one delta for vehicle vid under epoch over a fresh
// connection, waits for the covering ack, and offers the same frames to
// mirror, which then holds exactly the context the server reconstructed.
func pushDelta(t *testing.T, s *Server, vid, epoch uint32, d v2v.Delta, width int, mirror *v2v.Receiver) {
	t.Helper()
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(vid, epoch, width); err != nil {
		t.Fatalf("hello v%d: %v", vid, err)
	}
	if err := cl.SendDelta(d, epoch); err != nil {
		t.Fatalf("send v%d: %v", vid, err)
	}
	want := d.FromMark + len(d.Marks)
	for {
		m, err := cl.ReadMsg()
		if err != nil {
			t.Fatalf("read ack v%d: %v", vid, err)
		}
		if m.Kind == MsgAck && m.AckEpoch == epoch && m.AckCum >= want {
			break
		}
	}
	for _, fr := range v2v.DataFrames(d, obs.TraceRef{}, epoch) {
		mirror.Offer(fr)
	}
}

// cachedSnap returns the snapshot vehicle id's entry last handed out.
func cachedSnap(t *testing.T, s *Server, id uint32) *trajectory.Aware {
	t.Helper()
	e := s.tab.get(id, s.clock.Now())
	if e == nil {
		t.Fatalf("vehicle %d not resident", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snap
}

// TestSnapshotReuseNeverServesStale: a vehicle's snapshot is reused across
// batches only while its context is unchanged. After an applied DATA frame,
// and after an epoch reset, the next batch resolves on the new context —
// its RESULT equals a cold engine resolve of exactly the pushed contexts.
func TestSnapshotReuseNeverServesStale(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	const width = 32
	trajs := testConvoy(17, 3, 250, 20, width)
	p := testParams()
	s := New(Config{Addr: "127.0.0.1:0", Clock: NewSimClock(1250), Workers: 2, Params: p})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	q, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	delta := func(a *trajectory.Aware, from, to int) v2v.Delta {
		d, err := v2v.MakeDelta(a.PrefixUntil(a.Geo.Marks[to-1].T), from)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	m1, m2 := v2v.NewReceiver(width), v2v.NewReceiver(width)
	pushDelta(t, s, 1, 1, delta(trajs[0], 0, 180), width, m1)
	pushDelta(t, s, 2, 1, delta(trajs[1], 0, 250), width, m2)

	qid := uint32(0)
	// ask queries (1, 2) and checks the RESULT against a cold engine
	// resolve of the mirrors, and the batch's snapshots against their
	// lengths.
	ask := func(stage string) {
		t.Helper()
		qid++
		if err := q.Query(qid, 1, 2, 0); err != nil {
			t.Fatal(err)
		}
		got := readResult(t, q)
		eng := engine.New(1)
		defer eng.Close()
		b, err := eng.Admit(m1.Copy(), m2.Copy())
		if err != nil {
			t.Fatal(err)
		}
		want := b.ResolvePairs([][2]int{{0, 1}}, p)[0]
		switch {
		case got.Kind != MsgResult || got.QID != qid:
			t.Fatalf("%s: got %+v, want RESULT qid %d", stage, got, qid)
		case want.OK && (got.Status != StatusOK || got.Distance != want.Est.Distance):
			t.Fatalf("%s: served status %d d=%v, cold engine d=%v", stage, got.Status, got.Distance, want.Est.Distance)
		case !want.OK && got.Status != StatusUnresolved:
			t.Fatalf("%s: served status %d, cold engine unresolved", stage, got.Status)
		}
		for id, m := range map[uint32]*v2v.Receiver{1: m1, 2: m2} {
			if n := cachedSnap(t, s, id).Len(); n != m.Copy().Len() {
				t.Fatalf("%s: vehicle %d resolved on %d marks, pushed %d", stage, id, n, m.Copy().Len())
			}
		}
	}

	reused := stel().snapshotsReused
	ask("first contact")
	s1, s2 := cachedSnap(t, s, 1), cachedSnap(t, s, 2)
	before := reused.Value()
	ask("unchanged")
	ask("unchanged again")
	if cachedSnap(t, s, 1) != s1 || cachedSnap(t, s, 2) != s2 {
		t.Fatal("snapshots were retaken although no frame applied")
	}
	if got := reused.Value() - before; got != 4 {
		t.Fatalf("reused snapshots counted %d, want 4 (two vehicles × two batches)", got)
	}

	pushDelta(t, s, 1, 1, delta(trajs[0], 180, 250), width, m1)
	ask("after an applied frame")
	if cachedSnap(t, s, 1) == s1 || cachedSnap(t, s, 2) != s2 {
		t.Fatal("only the vehicle whose receiver applied a frame should be snapshotted again")
	}

	// Vehicle 1 restarts under a new epoch with a different context of
	// the same length: the receiver resets, and the cached snapshot must
	// go although the length alone cannot tell.
	m1 = v2v.NewReceiver(width)
	pushDelta(t, s, 1, 2, delta(trajs[2], 0, 250), width, m1)
	ask("after an epoch reset")
}
