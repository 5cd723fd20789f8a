package main

import (
	"errors"
	"fmt"
	"time"

	"rups/internal/obs"
	"rups/internal/serve"
	"rups/internal/v2v"
)

// ackWindow is how many chunks the uploader keeps unacknowledged. The
// server acks every intact DATA frame (~7 per 6-mark chunk at 194
// channels) into a 256-slot outbox; an unwindowed upload of one full
// context overflows it and is kicked as a slow reader, so the uploader
// waits on the cumulative ack.
const ackWindow = 8

// streamEpoch is the one sender epoch every vehicle streams under: the
// benchmark never restarts a vehicle, so every re-HELLO resumes.
const streamEpoch = 1

// streamer uploads vehicles' marks over one connection at a time. For each
// push it dials, HELLOs under streamEpoch, sends the delta's chunks with at
// most ackWindow of them unacknowledged, waits for the cumulative ack that
// covers the delta, and hangs up. The server's vehicle entry and its
// receiver outlive the connection, so the next push resumes where this
// one stopped.
type streamer struct {
	addr string

	pushes     int
	chunks     int
	marks      int
	framesSent int
	acksRead   int
	kicks      int           // connections the server dropped mid-push
	encode     time.Duration // MakeDelta + ChunkDelta + DataFrames
	chunkAckMS []float64     // first frame of a chunk sent → ack covering it
	pushAckMS  []float64     // first frame of a push sent → ack covering it

	// capture, when non-nil, keeps each push's frames, up to captureMax
	// frames in all, for the offline v2v.Receiver replay.
	capture    [][][]byte
	captureMax int
	captured   int
}

type ackEvent struct {
	cum int
	at  time.Time
}

// push uploads v's marks up to n (exclusive) and advances v.mirror.
func (s *streamer) push(v *vehicle, n int) error {
	t0 := time.Now()
	d, ok := v.delta(n)
	if !ok {
		return nil
	}
	chunks := v2v.ChunkDelta(d)
	frames := make([][][]byte, len(chunks))
	for i, c := range chunks {
		frames[i] = v2v.DataFrames(c, obs.TraceRef{}, streamEpoch)
	}
	s.encode += time.Since(t0)
	if s.capture != nil && s.captured < s.captureMax {
		var all [][]byte
		for _, fs := range frames {
			all = append(all, fs...)
		}
		s.capture = append(s.capture, all)
		s.captured += len(all)
	}

	ends := make([]int, len(chunks))
	for i, c := range chunks {
		ends[i] = c.FromMark + len(c.Marks)
	}
	sentAt := make([]time.Time, len(chunks))
	acked := v.mirror.Len()
	next := 0 // first chunk not yet sent on the current connection
	for attempt := 0; ; attempt++ {
		err := s.session(v.id, v.aware.Width(), frames, ends, sentAt, &acked, &next)
		if err == nil {
			break
		}
		if !errors.Is(err, errKicked) || attempt == 2 {
			return fmt.Errorf("push vehicle %d: %w", v.id, err)
		}
		// Resume from the last acknowledged chunk on a fresh connection.
		s.kicks++
		next = 0
		for next < len(ends) && ends[next] <= acked {
			next++
		}
	}
	for _, c := range chunks {
		if err := c.Apply(v.mirror); err != nil {
			return err
		}
	}
	s.pushes++
	s.chunks += len(chunks)
	s.marks += len(d.Marks)
	return nil
}

var errKicked = errors.New("server closed the stream")

// session runs one connection of a push: it sends chunks from *next on,
// windowed on the cumulative ack, until the ack covers the last chunk.
func (s *streamer) session(vid uint32, width int, frames [][][]byte, ends []int, sentAt []time.Time, acked, next *int) error {
	c, err := serve.Dial(s.addr)
	if err != nil {
		return err
	}
	// Far more than the ~7 acks per chunk of an ackWindow-deep push can
	// queue, so the reader never blocks on a slow consumer.
	acks := make(chan ackEvent, 4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(acks)
		for {
			m, err := c.ReadMsg()
			if err != nil {
				return
			}
			if m.Kind == serve.MsgAck && m.AckEpoch == streamEpoch {
				acks <- ackEvent{m.AckCum, time.Now()}
			}
		}
	}()
	defer func() {
		_ = c.Close() // ends the reader; nothing consumes the error
		<-done
	}()
	if err := c.Hello(vid, streamEpoch, width); err != nil {
		return errKicked
	}
	pushStart := time.Time{}
	recorded := 0 // chunks whose ack latency is recorded
	wait := func(target int) error {
		timeout := time.After(10 * time.Second)
		for *acked < target {
			select {
			case ev, ok := <-acks:
				if !ok {
					return errKicked
				}
				s.acksRead++
				if ev.cum > *acked {
					*acked = ev.cum
				}
				for recorded < len(ends) && ends[recorded] <= *acked {
					if !sentAt[recorded].IsZero() {
						s.chunkAckMS = append(s.chunkAckMS, msSince(sentAt[recorded], ev.at))
					}
					recorded++
				}
				if *acked >= ends[len(ends)-1] && !pushStart.IsZero() {
					s.pushAckMS = append(s.pushAckMS, msSince(pushStart, ev.at))
					pushStart = time.Time{}
				}
			case <-timeout:
				return errors.New("no ack within 10 s")
			}
		}
		return nil
	}
	for ; *next < len(frames); *next++ {
		i := *next
		if i >= ackWindow {
			if err := wait(ends[i-ackWindow]); err != nil {
				return err
			}
		}
		sentAt[i] = time.Now()
		if pushStart.IsZero() && i == 0 {
			pushStart = sentAt[i]
		}
		for _, fr := range frames[i] {
			if err := c.SendRaw(fr); err != nil {
				return errKicked
			}
			s.framesSent++
		}
	}
	return wait(ends[len(ends)-1])
}

func msSince(t0, t1 time.Time) float64 { return float64(t1.Sub(t0)) / float64(time.Millisecond) }
