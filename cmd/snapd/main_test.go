package main

import (
	"bytes"
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// runMainEnv, set in a child's environment, makes this test binary run
// snapd's main instead of its tests, so a test can start a real snapd
// process and read what main made of that environment.
const runMainEnv = "SNAPD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// The profiling endpoints must never be reachable through the port that
// serves queries, whether or not -pprof is given; with it they answer on
// their own listener, which in turn serves nothing of the query API.
func TestServingPortNeverServesPprof(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"without -pprof", nil},
		{"with -pprof", []string{"-pprof", "127.0.0.1:0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type addrs struct{ serving, profiling net.Addr }
			up := make(chan addrs, 1)
			done := make(chan error, 1)
			args := append([]string{"-addr", "127.0.0.1:0", "-gen", "64", "-replicas", "1", "-monitor", "0", "-drain", "2s"}, tc.args...)
			go func() {
				done <- run(ctx, args, func(s, p net.Addr) { up <- addrs{s, p} })
			}()
			var a addrs
			select {
			case a = <-up:
			case err := <-done:
				t.Fatalf("run returned before listening: %v", err)
			case <-time.After(30 * time.Second):
				t.Fatal("snapd did not come up within 30s")
			}

			status := func(addr net.Addr, path string) int {
				t.Helper()
				resp, err := http.Get("http://" + addr.String() + path)
				if err != nil {
					t.Fatalf("GET %s%s: %v", addr, path, err)
				}
				resp.Body.Close()
				return resp.StatusCode
			}
			if got := status(a.serving, "/v1/health"); got != http.StatusOK {
				t.Errorf("serving port: /v1/health = %d, want 200", got)
			}
			for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile?seconds=1"} {
				if got := status(a.serving, path); got != http.StatusNotFound {
					t.Errorf("serving port: %s = %d, want 404", path, got)
				}
			}
			if (a.profiling != nil) != (tc.args != nil) {
				t.Fatalf("pprof listener %v, args %v", a.profiling, tc.args)
			}
			if a.profiling != nil {
				if got := status(a.profiling, "/debug/pprof/"); got != http.StatusOK {
					t.Errorf("pprof port: /debug/pprof/ = %d, want 200", got)
				}
				if got := status(a.profiling, "/v1/health"); got != http.StatusNotFound {
					t.Errorf("pprof port: /v1/health = %d, want 404", got)
				}
			}

			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("run: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("snapd did not shut down within 30s")
			}
		})
	}
}

// lockedBuffer is a bytes.Buffer the daemon's goroutines may log into
// while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// The start-up line names the replicas and the Ps snapd serves on, and
// splits bring-up into its two parts, so an operator can see where
// start-up went: building the knowledge base, and bringing the replica
// pool up on it.
func TestStartupLineSplitsBringUp(t *testing.T) {
	var logged lockedBuffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	up := make(chan struct{})
	done := make(chan error, 1)
	args := []string{"-addr", "127.0.0.1:0", "-gen", "64", "-replicas", "1", "-monitor", "0", "-drain", "2s"}
	go func() {
		done <- run(ctx, args, func(net.Addr, net.Addr) { close(up) })
	}()
	select {
	case <-up:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("snapd did not come up within 30s")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("snapd did not shut down within 30s")
	}

	line := regexp.MustCompile(`serving \d+-node knowledge base on 1 replicas, \d+ procs at \S+ \(knowledge base built in \d+\.\d ms, pool up in \d+\.\d ms\)`)
	if !line.MatchString(logged.String()) {
		t.Fatalf("no start-up line with both figures in:\n%s", logged.String())
	}
}

// snapd serves on one P unless $GOMAXPROCS asks for more: main bounds the
// runtime to 1 when the variable is unset, leaves the runtime's reading
// of any value alone, and the replica pool follows the Ps either way.
func TestServeProcsFollowGOMAXPROCS(t *testing.T) {
	for _, v := range []string{"", "1", "2", "8", "junk"} {
		want := 0
		if v == "" {
			want = 1
		}
		getenv := func(k string) string {
			if k == "GOMAXPROCS" {
				return v
			}
			return ""
		}
		if got := serveProcs(getenv); got != want {
			t.Errorf("serveProcs with $GOMAXPROCS=%q = %d, want %d", v, got, want)
		}
	}

	for _, tc := range []struct {
		env  []string
		want string
	}{
		{nil, "on 1 replicas, 1 procs at"},
		{[]string{"GOMAXPROCS=2"}, "on 2 replicas, 2 procs at"},
	} {
		if got := startupLine(t, tc.env); !strings.Contains(got, tc.want) {
			t.Errorf("snapd with %v logged %q, want %q", tc.env, got, tc.want)
		}
	}
}

// startupLine starts this binary as snapd on a small generated network
// with env added to the environment, which otherwise has no $GOMAXPROCS,
// and returns its start-up line once the daemon has drained on SIGTERM.
func startupLine(t *testing.T, env []string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-gen", "64", "-monitor", "0", "-drain", "2s")
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(append(cmd.Env, runMainEnv+"=1"), env...)
	var logged lockedBuffer
	cmd.Stderr = &logged
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	serving := regexp.MustCompile(`serving .*`)
	deadline := time.Now().Add(30 * time.Second)
	for !serving.MatchString(logged.String()) {
		if time.Now().After(deadline) {
			t.Fatalf("snapd logged no start-up line within 30s:\n%s", logged.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("snapd: %v\n%s", err, logged.String())
	}
	return serving.FindString(logged.String())
}
