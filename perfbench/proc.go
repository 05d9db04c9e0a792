package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"seqrep/api"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTicks = 100

// serverProc is one seqserved process serving a data directory on a loopback
// port.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// startServer launches bin on a free loopback port over dataDir; extra
// flags follow the fixed ones. Its output goes to logPath.
func startServer(bin, dataDir, logPath string, extra []string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// nice execs the server in place, so the pid is the server's. At
	// nice 10 the server yields to the load generator when both want a
	// core: on a small box an unprioritized generator dispatches late and
	// measures its own starvation.
	args := append([]string{"-n", "10", bin, "-addr", addr, "-data-dir", dataDir, "-checkpoint-interval", "0"}, extra...)
	cmd := exec.Command("nice", args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the server dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: every stop is ours
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

// waitHealthy polls /healthz until it answers ok, the process exits or
// the deadline passes.
func (s *serverProc) waitHealthy(c *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-s.done:
			return errors.New("seqserved exited before becoming healthy (see its log)")
		default:
		}
		var h api.HealthResponse
		if err := getJSON(c, s.base+"/healthz", &h); err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("seqserved not healthy after %s", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the process and waits until it has exited.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // fails only if already exited
	<-s.done
}

// cpu returns the process's user plus system CPU time so far.
func (s *serverProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// rssPeakMB returns the process's resident-set high-water mark (VmHWM).
func (s *serverProc) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// newClient returns an HTTP client holding at most conns keep-alive
// connections. It never retries a request: a failure is reported, not
// hidden.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON posts body and decodes a 2xx answer into out (when non-nil).
func postJSON(ctx context.Context, c *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
