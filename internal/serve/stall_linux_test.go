package serve

import (
	"net"
	"syscall"
	"testing"
	"time"

	"rups/internal/obs"
)

// smallWindow shrinks a client socket before it connects: a 536-byte MSS
// caps the server's send buffer for the connection at tens of kilobytes
// (loopback otherwise grants megabytes), and a minimal receive buffer
// keeps the client's side as small.
func smallWindow(_, _ string, rc syscall.RawConn) error {
	var err error
	if cerr := rc.Control(func(fd uintptr) {
		err = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_MAXSEG, 536)
		if err == nil {
			err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 1)
		}
	}); cerr != nil {
		return cerr
	}
	return err
}

// TestStalledClientKickedOverTCP drives the slow-reader path end to end
// over a real socket: a vehicle streams its context, then floods queries
// and never reads. Once the kernel buffers are full the server's writer
// blocks, the outbox fills, and the server must disconnect the client as
// a slow reader, while the resolver keeps answering a well-behaved client.
func TestStalledClientKickedOverTCP(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	trajs := testConvoy(9, 2, 200, 20, 32)
	s := New(Config{Addr: "127.0.0.1:0", Clock: NewSimClock(1250), Workers: 2, Params: testParams()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	good, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	streamVehicle(t, good, 1, 1, trajs[0])
	nc, err := (&net.Dialer{Control: smallWindow}).Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	stalled := NewClient(nc)
	streamVehicle(t, stalled, 2, 1, trajs[1])

	before := stel().slowDisconnects.Value()
	// A blocked write means the server stopped reading without closing.
	if err := nc.SetWriteDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// Batches of 64 answers fit the outbox, and the pause after each lets
	// the writer move it into the socket: the outbox fills only once the
	// socket stops taking bytes, not from one burst.
	sent := 0
	for ; sent < 1<<17 && stalled.Query(uint32(sent), 2, 1, 0) == nil; sent++ {
		if sent%64 == 63 {
			time.Sleep(time.Millisecond)
		}
	}
	if stel().slowDisconnects.Value() == before {
		t.Fatalf("the server never disconnected a client that left %d queries unread", sent)
	}
	if err := good.Query(1, 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if m := readResult(t, good); m.Kind != MsgResult || m.Status != StatusOK {
		t.Fatalf("the well-behaved client got %+v after the kick, want an OK RESULT", m)
	}
}
