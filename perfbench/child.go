package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// serveFlags are the flags cabd-serve runs with: a loopback port and a
// port file, every detection and serving setting at its default.
func serveFlags(portfile string) []string {
	return []string{"-addr", "127.0.0.1:0", "-portfile", portfile}
}

// child is one cabd-serve process on loopback.
type child struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client
	log  *os.File
	exit chan error
}

// httpClient returns the benchmark's HTTP client: at most two
// connections to the server, matching the two load goroutines.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
	}}
}

// startServer launches cabd-serve and returns once /healthz answers.
func startServer(ctx context.Context, bin, workDir string, n int) (*child, error) {
	portfile := filepath.Join(workDir, fmt.Sprintf("serve-%d.port", n))
	_ = os.Remove(portfile)
	logf, err := os.Create(filepath.Join(workDir, fmt.Sprintf("serve-%d.log", n)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, serveFlags(portfile)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, hc: httpClient(), log: logf, exit: make(chan error, 1)}
	go func() { c.exit <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(portfile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			c.base = "http://127.0.0.1:" + strings.TrimSpace(string(b))
			if st, _, err := c.do(ctx, http.MethodGet, "/healthz", nil); err == nil && st == http.StatusOK {
				return c, nil
			}
		}
		select {
		case err := <-c.exit:
			c.exit <- err
			c.stop()
			return nil, fmt.Errorf("cabd-serve exited during start: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("cabd-serve not healthy within 20s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// do issues one request and reads the whole reply.
func (c *child) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// call issues one request and decodes a 2xx JSON reply into out (when
// non-nil); any other status is an error.
func (c *child) call(ctx context.Context, method, path string, body []byte, out any) error {
	st, b, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	if st < 200 || st > 299 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, st, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop sends SIGTERM, waits for the drain and kills the process if it
// does not exit within ten seconds.
func (c *child) stop() {
	if c.cmd.Process != nil {
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.exit:
		case <-time.After(10 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.exit
		}
	}
	c.hc.CloseIdleConnections()
	c.log.Close()
}

// procMB reads a kB field of /proc/<pid>/status (VmRSS, VmHWM) in MB,
// 0 when unknown.
func procMB(pid int, field string) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func rssNote(pid int) string {
	return fmt.Sprintf("VmHWM %.1f MB over the whole run; peak_rss_mb is the 90th percentile of VmRSS sampled every 50 ms under load",
		procMB(pid, "VmHWM"))
}

// rssSampler reads a process's VmRSS every 50 ms while a load runs.
type rssSampler struct {
	pid  int
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			s.mb = append(s.mb, procMB(pid, "VmRSS"))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the resident set the load held
// near its peak: the 90th percentile of the samples. Garbage collection
// makes the single highest sample vary from run to run; the upper
// decile of a few hundred samples does not.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return quantile(s.mb, 0.9)
}
