package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"quaestor/internal/server"
	"quaestor/internal/workload"
)

// node is one run of the server binary; its output goes to a file so the
// test can read it while the process is alive.
type node struct {
	cmd *exec.Cmd
	log string
	url string
}

func (n *node) output() string {
	b, _ := os.ReadFile(n.log)
	return string(b)
}

// buildBinary compiles the server into a temporary directory.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "quaestor-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startNode launches the built binary with -addr addr and args and waits
// until it answers HTTP.
func startNode(t *testing.T, bin, addr string, args ...string) *node {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "server-*.log")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close() // the child keeps its own descriptor
	n := &node{log: out.Name(), url: "http://" + addr}
	n.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	n.cmd.Stdout, n.cmd.Stderr = out, out
	if err := n.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.cmd.Process.Kill(); n.cmd.Wait() })
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(n.url + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v\n%s", err, n.output())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires a clean exit (status 0) within 20 s.
func (n *node) stop(t *testing.T) {
	t.Helper()
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- n.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v (want status 0)\n%s", err, n.output())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("server still running 20s after SIGTERM\n%s", n.output())
	}
}

// TestSIGTERMSealsTheWAL is the process-boundary half of "no acked write
// is lost": under -fsync interval an acknowledged write may still sit in
// the page cache or the commit queue, so a clean stop has to drain the
// HTTP server and run the deferred Close calls that flush and fsync it.
// The fsync interval is an hour, so nothing but the shutdown path can
// have made the tail durable — and a restart must find every write, from
// a log that ends on a whole record.
func TestSIGTERMSealsTheWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := buildBinary(t)
	addr := freeAddr(t)
	args := []string{"-tables", "posts", "-data-dir", t.TempDir(), "-fsync", "interval", "-fsync-interval", "1h"}

	const writes = 200
	n := startNode(t, bin, addr, args...)
	for i := 0; i < writes; i++ {
		body := fmt.Sprintf(`{"_id":"p%03d","n":%d}`, i, i)
		resp, err := http.Post(n.url+"/v1/db/posts", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("insert %d: status %d", i, resp.StatusCode)
		}
	}
	n.stop(t)

	n = startNode(t, bin, addr, args...)
	if out := n.output(); !strings.Contains(out, "torn tail: false") || strings.Contains(out, "torn tail: true") {
		t.Errorf("restart did not report a whole log:\n%s", out)
	}
	for i := 0; i < writes; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/db/posts/p%03d", n.url, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("acked write p%03d lost across SIGTERM + restart: status %d", i, resp.StatusCode)
		}
	}
}

// TestBenchmarkCommandLine starts the binary with every command line the
// load benchmark renders and requires each to come up, serve /v1/stats as
// a server.StatsResponse and exit 0 on SIGTERM. It must track serverArgs
// in benchmark/proc.go: a flag the benchmark passes that the server no
// longer accepts fails every benchmark run, and that module's tests do not
// start this binary.
func TestBenchmarkCommandLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := buildBinary(t)
	var tables, indexes []string
	for i := 0; i < 4; i++ {
		tables = append(tables, workload.TableName(i))
		indexes = append(indexes, workload.TableName(i)+":tags")
	}
	inMemory := []string{"-tables", strings.Join(tables, ","), "-indexes", strings.Join(indexes, ",")}
	with := func(extra ...string) []string { return append(append([]string(nil), inMemory...), extra...) }
	for _, shape := range []struct {
		name    string
		args    []string
		durable bool
	}{
		{"in-memory", inMemory, false},
		{"max-queries", with("-max-queries", "1000"), false},
		{"durable", with("-data-dir", t.TempDir(), "-fsync", "always"), true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			n := startNode(t, bin, freeAddr(t), shape.args...)
			resp, err := http.Get(n.url + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var st server.StatsResponse
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("/v1/stats does not decode into server.StatsResponse: %v", err)
			}
			if got := st.Durability != nil; got != shape.durable {
				t.Errorf("durability section present = %v, want %v", got, shape.durable)
			}
			n.stop(t)
		})
	}
}
