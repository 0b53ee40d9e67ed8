package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves behind — sccgd children and their
// data directories — so that one close() on every exit path (normal return,
// error, signal, a panic in a client goroutine) reaps it all. A leaked
// daemon keeps burning a core and silently poisons the next run's numbers.
type harness struct {
	root  string // repository root
	sccgd string // built daemon binary
	tmp   string // this run's scratch directory under benchmark/out/tmp
	logs  string // benchmark/out/logs

	mu       sync.Mutex
	children []*daemon
	closed   bool
}

// findRoot walks up from the working directory to the checkout root, so the
// benchmark runs both as `go run -C benchmark .` and from run.sh.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sccgd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/sccgd above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// newHarness builds cmd/sccgd (a no-op when the build cache is warm) and
// creates the run's scratch directory. Everything is written inside the
// checkout: binaries under .bench_build, the rest under benchmark/out.
func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{
		root:  root,
		sccgd: filepath.Join(root, ".bench_build", "bin", "sccgd"),
		logs:  filepath.Join(root, "benchmark", "out", "logs"),
	}
	build := exec.Command("go", "build", "-o", h.sccgd, "./cmd/sccgd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build sccgd: %w\n%s", err, out)
	}
	tmpParent := filepath.Join(root, "benchmark", "out", "tmp")
	for _, d := range []string{h.logs, tmpParent} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if h.tmp, err = os.MkdirTemp(tmpParent, "run-"); err != nil {
		return nil, err
	}
	return h, nil
}

// dataDir makes a fresh data directory for one daemon.
func (h *harness) dataDir(name string) (string, error) {
	return os.MkdirTemp(h.tmp, name+"-")
}

// close kills every child still alive and removes the scratch directory.
// It is idempotent, and start refuses to spawn after it.
func (h *harness) close() {
	h.mu.Lock()
	h.closed = true
	children := h.children
	h.children = nil
	h.mu.Unlock()
	for _, d := range children {
		d.kill()
	}
	os.RemoveAll(h.tmp)
}

// freeAddrs reserves n loopback ports by binding :0 and releasing them just
// before the daemons start. Cluster nodes must know each other's addresses
// before any of them is up, so the ports cannot come from the children.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// daemon is one running sccgd child.
type daemon struct {
	name string
	url  string
	dir  string // its -data-dir
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// cpuSeconds is the user+system CPU time the daemon has used so far, from
// /proc/<pid>/stat; 0 when that cannot be read.
func (d *daemon) cpuSeconds() float64 {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0
	}
	// The command name, in parentheses, may hold spaces: count from its end.
	fields := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(fields[11], 64)
	stime, _ := strconv.ParseFloat(fields[12], 64)
	return (utime + stime) / 100 // USER_HZ is 100 on every Linux port Go supports
}

// rssPeakMB is the daemon's peak resident set so far, from
// /proc/<pid>/status; 0 when that cannot be read.
func (d *daemon) rssPeakMB() float64 {
	status, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// start execs sccgd on addr over the data directory dir with the given flags
// and waits for /healthz. Stderr goes to benchmark/out/logs/<name>.log.
func (h *harness) start(name, addr, dir string, flags ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(h.logs, name+".log"))
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, url: "http://" + addr, dir: dir, log: logf, done: make(chan struct{})}
	d.cmd = exec.Command(h.sccgd, append([]string{"-addr", addr, "-data-dir", dir}, flags...)...)
	d.cmd.Stderr = logf
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		logf.Close()
		return nil, errors.New("harness closed")
	}
	if err := d.cmd.Start(); err != nil {
		h.mu.Unlock()
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	h.children = append(h.children, d)
	h.mu.Unlock()
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState
		close(d.done)
	}()

	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := httpClient.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("%s exited before it was healthy; see %s", name, logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("%s not healthy after 15s; see %s", name, logf.Name())
		}
	}
}

// stop shuts the daemon down cleanly: SIGTERM drains persisted reports.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("stop %s: %w", d.name, err)
	}
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.kill()
		return fmt.Errorf("%s ignored SIGTERM for 15s", d.name)
	}
	d.log.Close()
	if ps := d.cmd.ProcessState; !ps.Success() {
		return fmt.Errorf("%s exited with %s", d.name, ps)
	}
	return nil
}

// kill is the unconditional path: SIGKILL, then wait until the process is
// really gone.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.done
	d.log.Close()
}
