package main

import (
	"bytes"
	"context"
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

	"quaestor/internal/workload"
)

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/quaestor-server into the checkout's build
// directory and returns the binary's path. Build time is not part of any
// metric.
func buildServer(root, scratch string) (string, error) {
	bin := filepath.Join(scratch, "quaestor-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/quaestor-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building quaestor-server: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one spawned quaestor-server.
type serverProc struct {
	cmd  *exec.Cmd
	args []string
	bin  string
	base string // http://127.0.0.1:port
	log  *bytes.Buffer
	done chan struct{} // closed once the process has been reaped
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

// serverArgs renders the command line of the workload's server.
func serverArgs(spec *workloadSpec, ds *workload.Dataset, port int, dataDir string) []string {
	var indexes []string
	for _, t := range ds.Tables {
		indexes = append(indexes, t+":tags")
	}
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-tables", strings.Join(ds.Tables, ","),
		"-indexes", strings.Join(indexes, ","),
	}
	if spec.Durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	if spec.MaxQueries > 0 {
		args = append(args, "-max-queries", strconv.Itoa(spec.MaxQueries))
	}
	return args
}

// spawn starts the server and returns once it answers GET /v1/stats.
func spawn(bin string, args []string, port int) (*serverProc, error) {
	p := &serverProc{bin: bin, args: args, base: fmt.Sprintf("http://127.0.0.1:%d", port)}
	if err := p.start("/v1/stats"); err != nil {
		return nil, err
	}
	return p, nil
}

// start launches the process and polls probe until it answers 200.
func (p *serverProc) start(probe string) error {
	p.log = &bytes.Buffer{}
	// Client and server share the box's cores. In a deployment the client
	// is another machine, whose timers the server's load cannot delay; here
	// a session waking for a due op would queue behind the server's threads
	// (p95 lateness near 1 ms on query_churn). Running the server a few
	// nice levels down lets the woken session preempt it. nice(1) execs the
	// server, so the pid stays the server's.
	argv := append([]string{p.bin}, p.args...)
	if nice, err := exec.LookPath("nice"); err == nil {
		argv = append([]string{nice, "-n", "5"}, argv...)
	}
	p.cmd = exec.Command(argv[0], argv[1:]...)
	p.cmd.Stdout = p.log
	p.cmd.Stderr = p.log
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.bin, err)
	}
	done := make(chan struct{})
	p.done = done
	go func(cmd *exec.Cmd) {
		_ = cmd.Wait() // a killed server's exit status carries nothing
		close(done)
	}(p.cmd)
	deadline := time.Now().Add(60 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.base+probe, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("GET %s: status %d", probe, resp.StatusCode)
			}
		}
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-done:
			return fmt.Errorf("server exited before answering:\n%s", p.log)
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return fmt.Errorf("server did not answer within 60s: %v\n%s", err, p.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the server and waits until the process has ended.
func (p *serverProc) kill() {
	if p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-p.done
	p.cmd = nil
}

// restart kills the server and starts it again with the same arguments
// (same port, same data directory), returning the time from the SIGKILL
// until the new process answers a read of readPath.
func (p *serverProc) restart(readPath string) (time.Duration, error) {
	start := time.Now()
	p.kill()
	if err := p.start(readPath); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis. utime and stime are fields 14 and 15.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns VmHWM from /proc/<pid>/status in MiB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
