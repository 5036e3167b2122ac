package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process handling for the real cmd/ralloc-serve binary: build it from the
// checkout under test, spawn it with the frozen flag set, read its CPU time
// and peak RSS from /proc, kill -9 it, and make sure no child outlives the run.

// clkTck is the kernel's USER_HZ. It is 100 on every Linux this runs on, and
// sysconf(_SC_CLK_TCK) is not reachable without cgo.
const clkTck = 100

var children struct {
	sync.Mutex
	live map[*serverProc]struct{}
}

// reapAll kills and waits for every server still running. It runs on normal
// exit, on panic (deferred in main) and from the hard-timeout watchdog.
func reapAll() {
	children.Lock()
	procs := make([]*serverProc, 0, len(children.live))
	for p := range children.live {
		procs = append(procs, p)
	}
	children.Unlock()
	for _, p := range procs {
		p.kill9()
	}
}

// buildServer compiles cmd/ralloc-serve of the checkout at root into
// root/.bench_build/bin and returns the binary path and the build wall time.
func buildServer(root string) (string, time.Duration, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "ralloc-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ralloc-serve")
	cmd.Dir = root
	t0 := time.Now()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/ralloc-serve: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

type serverProc struct {
	cmd     *exec.Cmd
	sock    string
	log     *os.File
	started time.Time     // just before exec
	exited  chan struct{} // closed once Wait has returned
}

// serverFlags is the frozen ralloc-serve interface the benchmark depends on
// (listed in README.md). dir holds the heap image and the socket.
func serverFlags(dir string, sc scale, boundMB int) []string {
	return []string{
		"-heap", filepath.Join(dir, "kv.heap"),
		"-unix", filepath.Join(dir, "s.sock"),
		"-heapmb", strconv.Itoa(sc.heapMB),
		"-buckets", strconv.Itoa(sc.buckets),
		"-boundmb", strconv.Itoa(boundMB),
		"-checkpoint", "0",
		"-expire-cycle", "100ms",
	}
}

// startServer execs the server. dir must be short enough, relative to the
// working directory, for a unix socket path (108 bytes).
func startServer(bin, dir string, sc scale, boundMB int) (*serverProc, error) {
	logf, err := os.OpenFile(filepath.Join(dir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, serverFlags(dir, sc, boundMB)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Backstop for a benchmark that dies without running reapAll.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, sock: filepath.Join(dir, "s.sock"), log: logf, started: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		_ = cmd.Wait() // a killed server's exit status carries no information
		close(p.exited)
	}()
	children.Lock()
	if children.live == nil {
		children.live = map[*serverProc]struct{}{}
	}
	children.live[p] = struct{}{}
	children.Unlock()
	return p, nil
}

// connect dials the server's socket until it accepts (the listener opens only
// after the heap is loaded and recovered) and returns the first connection.
func (p *serverProc) connect(timeout time.Duration) (*client, error) {
	deadline := p.started.Add(timeout)
	for {
		c, err := dialUnix(p.sock)
		if err == nil {
			return c, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("server exited before accepting: %v\n%s", err, p.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server did not accept within %v: %v\n%s", timeout, err, p.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *serverProc) logTail() string {
	b, _ := os.ReadFile(p.log.Name()) // diagnostics only
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// kill9 sends SIGKILL and waits for the process to be gone.
func (p *serverProc) kill9() {
	children.Lock()
	delete(children.live, p)
	children.Unlock()
	_ = p.cmd.Process.Kill() // "already exited" is fine: the Wait goroutine reaps either way
	<-p.exited
	p.log.Close()
}

// cpuSeconds is the server's user+system CPU time so far (all threads).
func (p *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, i.e. 12th and 13th after ") ".
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat times %q %q", f[11], f[12])
	}
	return float64(ut+st) / clkTck, nil
}

// peakRSSMB reads VmHWM of pid ("self" for the benchmark itself).
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func (p *serverProc) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
}

// selfCPUSeconds is the benchmark process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
