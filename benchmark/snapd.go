package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildSnapd compiles cmd/snapd from the checkout at root into dir and
// returns the binary's path. The build is outside every timed region.
func buildSnapd(ctx context.Context, root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "snapd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/snapd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/snapd: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one running snapd under test.
type child struct {
	cmd  *exec.Cmd
	argv []string
	base string // http://127.0.0.1:port
	log  *os.File
	http *http.Client

	done     chan struct{} // closed once the process has been reaped
	stopOnce sync.Once
}

// children tracks every live child so that a signal, a panic or a failed
// check can kill them all on the way out.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

func killAllChildren() {
	children.Lock()
	var cs []*child
	for c := range children.live {
		cs = append(cs, c)
	}
	children.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startSnapd execs bin with only the flags a deployment would pass, and
// waits for the first 200 on /v1/health. It fails if something already
// answers on the chosen port (a child leaked by an earlier run) and if
// health does not answer within ten seconds.
func startSnapd(bin string, seed int64, conns int, logPath string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		return nil, fmt.Errorf("port %s is already held by another process", addr)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	argv := []string{bin, "-addr", addr, "-gen", strconv.Itoa(kbNodes), "-domain", "-seed", strconv.FormatInt(seed, 10), "-writes"}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A child must not outlive the benchmark even if the benchmark is
	// killed without running its exit path.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{
		cmd: cmd, argv: argv, base: "http://" + addr, log: logf,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute,
		}},
		done: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait() // the exit status of a child we signal is not a result
		close(c.done)
	}()
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	children.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.http.Get(c.base + "/v1/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("snapd did not answer /v1/health within 10s (see %s)", logPath)
		}
		if c.exited() {
			c.stop()
			return nil, fmt.Errorf("snapd exited during start-up (see %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop terminates the child and waits until it has ended. SIGTERM lets
// snapd drain; a child still alive after three seconds is killed.
func (c *child) stop() {
	c.stopOnce.Do(func() {
		c.http.CloseIdleConnections()
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
		select {
		case <-c.done:
		case <-time.After(3 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.done
		}
		c.log.Close()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
	})
}

// cpuTicks reads utime+stime of pid from /proc/<pid>/stat, in clock
// ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return ut + st, nil
}

// hostTicks is the host-wide CPU account of /proc/stat, in clock ticks:
// time the guest's CPUs spent running something, and time they were
// runnable but the hypervisor ran another guest instead (steal).
type hostTicks struct{ busy, steal int64 }

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // "cpu" user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return hostTicks{}
	}
	n := func(i int) int64 {
		v, _ := strconv.ParseInt(f[i], 10, 64) // a malformed field counts as zero
		return v
	}
	return hostTicks{busy: n(1) + n(2) + n(3) + n(6) + n(7), steal: n(8)}
}

// stolenSince is the share of the CPU time the guest wanted since
// earlier that the hypervisor gave to someone else, capped at 0.9.
func (h hostTicks) stolenSince(earlier hostTicks) float64 {
	steal, busy := float64(h.steal-earlier.steal), float64(h.busy-earlier.busy)
	if s := ratio(steal, steal+busy); s < 0.9 {
		return s
	}
	return 0.9
}

// tickMicros is the length of one /proc clock tick. USER_HZ is 100 on
// every Linux the Go toolchain supports.
const tickMicros = 10_000

// peakRSSMB reads VmHWM of pid from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// childGOMAXPROCS is what the Go runtime of a child started with this
// environment picks: $GOMAXPROCS when set, else the CPU count.
func childGOMAXPROCS() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}
