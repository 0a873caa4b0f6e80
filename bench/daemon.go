package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"auditdb/internal/client"
)

// buildDir is where everything the benchmark produces while running
// goes, relative to the module root: the daemon binary, data
// directories, init scripts, child logs.
const buildDir = ".bench_build"

// moduleRoot walks up from the working directory to the directory
// holding go.mod: the checkout root under `go run ./bench`, the parent
// of bench/ under `go test`.
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
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/auditdbd from the checkout's source into
// the build directory. The go build cache makes every call after the
// first a no-op link check.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "auditdbd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/auditdbd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/auditdbd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one auditdbd child process.
type daemon struct {
	cmd      *exec.Cmd
	logPath  string
	jsonAddr string
	pgAddr   string
	httpAddr string
	done     chan struct{} // closed when the child has been reaped
}

// liveDaemons lets the signal handler and the panic path reap every
// child, whatever the harness was doing when it died.
var liveDaemons struct {
	sync.Mutex
	m map[*daemon]struct{}
}

func killAllDaemons() {
	liveDaemons.Lock()
	ds := make([]*daemon, 0, len(liveDaemons.m))
	for d := range liveDaemons.m {
		ds = append(ds, d)
	}
	liveDaemons.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// startDaemon boots auditdbd on ephemeral ports and waits until it
// answers Ping. args are appended to the ports and logging flags; the
// child's stderr goes to logPath.
func startDaemon(bin, logPath string, metrics bool, args ...string) (*daemon, error) {
	full := []string{"-addr", "127.0.0.1:0", "-pg-addr", "127.0.0.1:0", "-log-level", "info"}
	if metrics {
		full = append(full, "-metrics-addr", "127.0.0.1:0")
	}
	full = append(full, args...)
	cmd := exec.Command(bin, full...)
	// If the harness dies without running its handlers the kernel
	// still takes the child down.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// One append-mode handle serves the child's stdout and the stderr
	// tee below, so neither overwrites the other.
	logw, err := os.OpenFile(logPath, os.O_CREATE|os.O_TRUNC|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logw.Close()
		return nil, err
	}
	cmd.Stderr = pw
	cmd.Stdout = logw
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		logw.Close()
		return nil, err
	}
	pw.Close()
	d := &daemon{cmd: cmd, logPath: logPath, done: make(chan struct{})}
	liveDaemons.Lock()
	if liveDaemons.m == nil {
		liveDaemons.m = map[*daemon]struct{}{}
	}
	liveDaemons.m[d] = struct{}{}
	liveDaemons.Unlock()

	// Tee stderr into the log file and pick the bound addresses out of
	// the "listening on" lines. The goroutine ends when the child's
	// stderr closes, i.e. when the child exits.
	type addrs struct{ json, pg, http string }
	ready := make(chan addrs, 1) // one send: the moment all addresses are known
	go func() {
		defer pr.Close()
		defer logw.Close()
		var a addrs
		sent := false
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logw, line)
			if sent {
				continue
			}
			if v, ok := fieldAfter(line, "auditdbd pg listening on "); ok {
				a.pg = v
			} else if v, ok := fieldAfter(line, "auditdbd listening on "); ok {
				a.json = v
			} else if strings.Contains(line, "metrics listening") {
				if v, ok := fieldAfter(line, "addr="); ok {
					a.http = v
				}
			}
			if a.json != "" && a.pg != "" && (!metrics || a.http != "") {
				ready <- a
				sent = true
			}
		}
	}()
	go d.wait()

	select {
	case a := <-ready:
		d.jsonAddr, d.pgAddr, d.httpAddr = a.json, a.pg, a.http
	case <-d.done:
		return nil, fmt.Errorf("auditdbd exited during start-up; log: %s", logPath)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("auditdbd did not start listening within 60s; log: %s", logPath)
	}
	c, err := client.Dial(d.jsonAddr)
	if err != nil {
		d.kill()
		return nil, err
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		d.kill()
		return nil, fmt.Errorf("ping: %w", err)
	}
	return d, nil
}

// fieldAfter returns the space-delimited field following marker.
func fieldAfter(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexAny(rest, " \"\\"); j >= 0 {
		rest = rest[:j]
	}
	return rest, rest != ""
}

// wait reaps the child; startDaemon runs it once, in its own goroutine.
func (d *daemon) wait() {
	d.cmd.Wait()
	liveDaemons.Lock()
	delete(liveDaemons.m, d)
	liveDaemons.Unlock()
	close(d.done)
}

// kill sends SIGKILL and returns once the child has been reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// peakRSSMB reads the child's high-water resident set from /proc.
func (d *daemon) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
