package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// moduleRoot walks up from the working directory to the directory
// holding go.mod: the server is built from there.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod not found above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/geoselserver into outDir and returns the
// binary's path.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "geoselserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/geoselserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/geoselserver: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running geoselserver child.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	// exited is closed once Wait has returned; waitErr is then set.
	exited  chan struct{}
	waitErr error
	stderr  bytes.Buffer
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return 0, err
	}
	return port, nil
}

// healthPoll is the gap between /healthz probes during a cold start;
// small against the ~0.3 s start it measures.
const healthPoll = 2 * time.Millisecond

// startServer execs the server on a free loopback port and waits for
// the first 200 from /healthz. The returned duration is exec → ready.
func startServer(bin, data string, flags []string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-data", data, "-addr", addr}, flags...)
	sp := &serverProc{cmd: exec.Command(bin, args...), base: "http://" + addr, exited: make(chan struct{})}
	sp.cmd.Stderr = &sp.stderr
	start := time.Now()
	if err := sp.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		sp.waitErr = sp.cmd.Wait()
		close(sp.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := hc.Get(sp.base + "/healthz")
		if err == nil {
			status := resp.StatusCode
			// Body of a probe, only the status matters.
			resp.Body.Close() //geolint:errok
			if status == http.StatusOK {
				hc.CloseIdleConnections()
				return sp, time.Since(start), nil
			}
		}
		select {
		case <-sp.exited:
			return nil, 0, fmt.Errorf("server exited during start: %v\n%s", sp.waitErr, sp.stderr.String())
		case <-time.After(healthPoll):
		}
		if time.Now().After(deadline) {
			sp.stop()
			return nil, 0, fmt.Errorf("server not healthy after 60s\n%s", sp.stderr.String())
		}
	}
}

// alive reports whether the child is still running.
func (sp *serverProc) alive() bool {
	select {
	case <-sp.exited:
		return false
	default:
		return true
	}
}

// stop terminates the child (SIGTERM, then SIGKILL after a grace
// period) and returns once it has been waited for.
func (sp *serverProc) stop() {
	if !sp.alive() {
		return
	}
	// The process may already be gone; Wait below is what matters.
	sp.cmd.Process.Signal(syscall.SIGTERM) //geolint:errok
	select {
	case <-sp.exited:
	case <-time.After(10 * time.Second):
		// Same.
		sp.cmd.Process.Kill() //geolint:errok
		<-sp.exited
	}
}

// cpuSeconds returns the child's on-CPU time so far, user and system,
// summed over its threads from /proc/<pid>/task/*/schedstat. That file
// counts in nanoseconds; utime and stime in /proc/<pid>/stat count in
// 10 ms ticks, too coarse for a pass of a second.
func (sp *serverProc) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", sp.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns uint64
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, errors.New("malformed schedstat")
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// peakRSSMB returns the child's VmHWM in MB.
func (sp *serverProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", sp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// getJSON fetches one of the server's stats endpoints.
func getJSON(ctx context.Context, url string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	// Read-only body; decode errors surface below.
	defer resp.Body.Close() //geolint:errok
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}
