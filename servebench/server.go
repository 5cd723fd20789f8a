package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clkTck is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat (100 on every mainstream Linux build).
const clkTck = 100

// server is one rups-serve child process on loopback.
type server struct {
	cmd       *exec.Cmd
	addr      string // query/stream listener
	debugAddr string // /metrics
	stderr    strings.Builder
	exited    chan error
}

// serverArgs are the only flags the benchmark sets: both listeners on
// ephemeral loopback ports. Every other flag keeps its shipped default.
var serverArgs = []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}

// startServer launches bin and waits until it reports both listen
// addresses on stderr.
func startServer(bin string) (*server, error) {
	s := &server{exited: make(chan error, 1)}
	s.cmd = exec.Command(bin, serverArgs...)
	// The child dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			s.stderr.WriteString(line + "\n")
			if a, ok := strings.CutPrefix(line, "rups-serve: listening on "); ok {
				s.addr = a
			}
			if a, ok := strings.CutPrefix(line, "rups-serve: debug endpoint on http://"); ok {
				s.debugAddr = a
			}
			if !signalled && s.addr != "" && s.debugAddr != "" {
				signalled = true
				ready <- nil
			}
		}
		if !signalled {
			ready <- errors.New("rups-serve exited before listening")
		}
		// Drain whatever the scanner left (it stops on an over-long line),
		// so the child never blocks writing to a full pipe.
		_, _ = io.Copy(io.Discard, pipe)
		s.exited <- s.cmd.Wait()
	}()
	select {
	case err := <-ready:
		if err != nil {
			return nil, fmt.Errorf("%v: %s", err, s.stderr.String())
		}
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, errors.New("rups-serve did not report its listeners within 20 s")
	}
	return s, nil
}

// stop drains the server with SIGTERM, as an operator would, and waits
// for it to exit; a server that hangs past 20 s is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.exited:
		return err
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("rups-serve did not drain within 20 s")
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only when the process is already gone
	<-s.exited
}

// scrape reads the server's /metrics exposition.
func (s *server) scrape() (promSample, error) {
	cl := http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get("http://" + s.debugAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	cl.CloseIdleConnections()
	return parseProm(string(b)), nil
}

// cpuSeconds returns the server's utime+stime from /proc.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return (ut + st) / clkTck, nil
}

// status returns one field of /proc/<pid>/status ("VmHWM", ...).
func (s *server) status(field string) string {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the server's VmHWM in MB (10^6 bytes).
func (s *server) peakRSSMB() float64 {
	f := strings.Fields(s.status("VmHWM")) // "12345 kB"
	if len(f) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return kb * 1024 / 1e6
}

// gomaxprocs is the server's effective GOMAXPROCS: the GOMAXPROCS
// environment value when set, else the number of CPUs the process may
// run on, which is what the Go runtime defaults to.
func (s *server) gomaxprocs() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	n := 0
	for _, part := range strings.Split(s.status("Cpus_allowed_list"), ",") {
		lo, hi, rng := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if rng {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}
