package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aware/internal/client"
)

// The programs under test run as child processes, built once from the
// checkout's own sources. Everything the benchmark writes — binaries, the
// snapshots, journals, child logs — lives under .bench_build in the checkout;
// the per-run scratch directory is removed on exit, on SIGINT and on every
// failure path, and every child is stopped and waited for.

// benchEnv owns the scratch directory and the children of one benchmark
// process.
type benchEnv struct {
	root   string // checkout root (holds go.mod)
	binDir string
	runDir string

	mu       sync.Mutex
	children []*child
	nextDir  int
}

// findRoot walks up from the working directory to the module root, so the
// benchmark works from the checkout root (the driver, go run ./benchmark) and
// from its own directory (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module aware\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no aware go.mod above the working directory; run from a checkout of the repository")
		}
		dir = parent
	}
}

// newBenchEnv creates the scratch directory and installs the signal handler
// that tears everything down on SIGINT / SIGTERM.
func newBenchEnv() (*benchEnv, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &benchEnv{root: root, binDir: filepath.Join(build, "bin")}
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return nil, err
	}
	// Scratch directories of runs that died without cleaning up (SIGKILL)
	// are dropped once they are clearly nobody's: no run lasts half an hour.
	if stale, err := filepath.Glob(filepath.Join(build, "run-*")); err == nil {
		for _, dir := range stale {
			if fi, err := os.Stat(dir); err == nil && time.Since(fi.ModTime()) > 30*time.Minute {
				os.RemoveAll(dir)
			}
		}
	}
	if e.runDir, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	// SIGPIPE too: a reader that closes our stdout (| head) must not leave
	// children or scratch files behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sigc
		e.cleanup()
		os.Exit(130)
	}()
	return e, nil
}

// cleanup stops every child still running and removes the scratch directory.
// It is idempotent.
func (e *benchEnv) cleanup() {
	e.mu.Lock()
	children := e.children
	e.children = nil
	e.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	os.RemoveAll(e.runDir)
}

// scratch returns a fresh directory under the run's scratch space.
func (e *benchEnv) scratch(prefix string) (string, error) {
	e.mu.Lock()
	e.nextDir++
	dir := filepath.Join(e.runDir, fmt.Sprintf("%s-%d", prefix, e.nextDir))
	e.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

// buildBinaries compiles the programs under test into .bench_build/bin. With
// a warm build cache this is a staleness check; the first run in a checkout
// pays the full compile.
func (e *benchEnv) buildBinaries() error {
	cmd := exec.Command("go", "build", "-o", e.binDir+string(os.PathSeparator),
		"./cmd/awared", "./cmd/awarerouter", "./cmd/awarestore")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the programs under test: %w\n%s", err, out)
	}
	return nil
}

func (e *benchEnv) bin(name string) string { return filepath.Join(e.binDir, name) }

// makeSnapshot streams a seeded census into dir/census.aware with the
// repository's own awarestore, in a child process: generation never shows up
// in the memory of a process under test.
func (e *benchEnv) makeSnapshot(dir string, rows int, seed int64) (string, error) {
	path := filepath.Join(dir, "census.aware")
	cmd := exec.Command(e.bin("awarestore"), "gen", "-rows", strconv.Itoa(rows), "-seed", strconv.FormatInt(seed, 10), "-out", path)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("generating the %d-row census snapshot: %w\n%s", rows, err, out)
	}
	return path, nil
}

// child is one running program under test.
type child struct {
	name    string
	cmd     *exec.Cmd
	url     string
	logPath string
	waited  chan struct{}
}

func (e *benchEnv) start(name string, env []string, bin string, args ...string) (*child, error) {
	logPath := filepath.Join(e.runDir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = childProcAttr()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	logFile.Close() // the child holds its own descriptor
	c := &child{name: name, cmd: cmd, logPath: logPath, waited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.waited)
	}()
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()
	return c, nil
}

// awaitHealthy polls GET /healthz until the child answers or exits.
func (c *child) awaitHealthy(timeout time.Duration) error {
	cl := client.New(c.url)
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := cl.Health(ctx)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-c.waited:
			return fmt.Errorf("%s exited before becoming healthy\n%s", c.name, c.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v: %v\n%s", c.name, timeout, err, c.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *child) logTail() string {
	data, err := os.ReadFile(c.logPath)
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// startAwared launches an awared serving the snapshots in dataDir on an
// ephemeral port (-addr 127.0.0.1:0 -addr-file) and waits for /healthz.
func (e *benchEnv) startAwared(name, dataDir, journalDir string, gomaxprocs int) (*child, error) {
	addrFile := filepath.Join(e.runDir, name+".addr")
	os.Remove(addrFile)
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-data", dataDir, "-rows", "0", "-node-name", name}
	if journalDir != "" {
		args = append(args, "-journal-dir", journalDir)
	}
	var env []string
	if gomaxprocs > 0 {
		env = append(env, "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	}
	c, err := e.start(name, env, e.bin("awared"), args...)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			c.url = "http://" + string(data)
			break
		}
		select {
		case <-c.waited:
			return nil, fmt.Errorf("%s exited before publishing its address\n%s", name, c.logTail())
		default:
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("%s published no address\n%s", name, c.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return c, c.awaitHealthy(30 * time.Second)
}

// startRouter launches an awarerouter in front of the nodes. The router has
// no -addr-file, so a free loopback port is reserved by binding and releasing
// it first.
func (e *benchEnv) startRouter(nodes []*child, journalDirs []string) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-addr", addr, "-health-interval", "100ms"}
	for i, n := range nodes {
		args = append(args, "-node", fmt.Sprintf("%s=%s,journal=%s", n.name, n.url, journalDirs[i]))
	}
	c, err := e.start("router", nil, e.bin("awarerouter"), args...)
	if err != nil {
		return nil, err
	}
	c.url = "http://" + addr
	return c, c.awaitHealthy(30 * time.Second)
}

// stop shuts the child down gracefully (SIGINT, as an operator would) and
// waits for it; a child that ignores the signal is killed.
func (c *child) stop() {
	select {
	case <-c.waited:
		return
	default:
	}
	c.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-c.waited:
	case <-time.After(8 * time.Second):
		c.kill()
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.waited
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// --- /proc accounting ---

// clockTick is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every Linux the Go toolchain supports.
const clockTick = 100

// procCPU returns the user+system CPU time a process has consumed.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted from
	// the closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(s[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu times in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSS returns a process' peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM in /proc/%d/status: %q", pid, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns the benchmark process' own user+system CPU time, the cost
// of the library workloads (which run in-process).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newHTTPClient returns an http.Client that keeps exactly one connection to
// the server: each analyst is one connection, as one browser tab would be.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     time.Minute,
	}}
}
