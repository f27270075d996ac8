package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// server is one `friendseeker serve` child process.
type server struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	log   *tailBuffer
	done  chan struct{} // closed when the process has exited
	err   error         // Wait's error, valid after done
	ready time.Duration // process start to the first healthy /healthz
	http  *http.Client  // for /healthz and /metrics only
}

// startServer starts the server on the fixture's model and CSV and waits
// until it answers /healthz, which it does only after loading the model,
// opening the ingest log and warming its scorer. ingestDir enables
// POST /v1/checkins.
//
// The server logs a line per request. Its output goes to a pipe the
// benchmark drains, as a log collector would take it, so no run depends on
// the disk a log file would sit on.
func startServer(ctx context.Context, env *benchEnv, fx *fixture, ingestDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"serve", "-model", fx.model, "-data", datasetName + "=" + fx.world.checkins,
		"-listen", fmt.Sprintf("127.0.0.1:%d", port)}
	if ingestDir != "" {
		args = append(args, "-ingest-dir", ingestDir)
	}
	s := &server{
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		log:  &tailBuffer{},
		done: make(chan struct{}),
		http: &http.Client{Timeout: 5 * time.Second},
	}
	// The server runs on programCPUs, and its GOMAXPROCS follows: the
	// server and the generator then run no more Ps between them than
	// there are cores, so a run measures the server, not the scheduler.
	s.cmd = exec.Command(env.cli, args...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	t0 := time.Now()
	if err := startPinned(s.cmd, env.programCPUs); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	deadline := time.NewTimer(2 * time.Minute)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.healthy() {
			s.ready = time.Since(t0)
			return s, nil
		}
		select {
		case <-tick.C:
		case <-s.done:
			return nil, fmt.Errorf("server exited before becoming ready: %v\n%s", s.err, s.logTail())
		case <-deadline.C:
			s.stop()
			return nil, fmt.Errorf("server not ready after 2m\n%s", s.logTail())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		}
	}
}

func (s *server) healthy() bool {
	resp, err := s.http.Get(s.base + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop drains the server with SIGTERM, killing it if it does not exit in
// time, waits for it, and returns its peak resident memory in MB.
func (s *server) stop() (float64, error) {
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
			return 0, errors.New("server did not drain within 30s")
		}
	}
	if s.err != nil {
		return 0, fmt.Errorf("server exited with %v\n%s", s.err, s.logTail())
	}
	return maxRSSMB(s.cmd.ProcessState), nil
}

// scrape reads and parses /metrics.
func (s *server) scrape() (*scrape, error) {
	resp, err := s.http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// waitIdle waits until the server has no admitted request in flight, so
// one probe's stragglers do not load the next.
func (s *server) waitIdle(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := s.scrape()
		if err != nil {
			return err
		}
		if m.values["fs_serve_inflight"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("server still busy 30s after a probe")
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// logTail returns the end of the server's output for error messages.
func (s *server) logTail() string { return s.log.String() }

// tailBuffer keeps the last tailSize bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailSize = 4096

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2*tailSize {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailSize:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf[max(0, len(t.buf)-tailSize):])
}

// freePort asks the kernel for an unused localhost port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// maxRSSMB is a finished child's peak resident set in MB.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	return 0
}
