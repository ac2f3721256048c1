package main

import (
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

// startNode launches the built binary on addr over dataDir and waits
// until it answers HTTP.
func startNode(t *testing.T, bin, addr, dataDir string) *node {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "server-*.log")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close() // the child keeps its own descriptor
	n := &node{log: out.Name(), url: "http://" + addr}
	n.cmd = exec.Command(bin, "-addr", addr, "-tables", "posts", "-data-dir", dataDir, "-fsync", "interval", "-fsync-interval", "1h")
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
	bin := filepath.Join(t.TempDir(), "quaestor-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	dataDir := t.TempDir()

	const writes = 200
	n := startNode(t, bin, addr, dataDir)
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

	n = startNode(t, bin, addr, dataDir)
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
