package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSubmitRacesClose pins the read lock submit holds across its send.
// Released before the send, Close can close the task channel between the
// closed check and the send: the send then panics, or -race reports it
// against the close. Several submitters spin while Close lands among them.
func TestSubmitRacesClose(t *testing.T) {
	for round := 0; round < 200; round++ {
		e := New(2)
		var sent atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if e.submit(func() {}) {
						sent.Add(1)
					} else if e.isClosed() {
						return
					} else {
						runtime.Gosched()
					}
				}
			}()
		}
		for sent.Load() < 8 {
			runtime.Gosched()
		}
		e.Close()
		wg.Wait()
	}
}
