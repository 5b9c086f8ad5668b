package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// findRoot locates the repo root from the working directory: `go run ./bench`
// starts in the root, `go run -C bench .` inside bench/.
func findRoot() (string, error) {
	for _, d := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(d, "cmd", "muaa-serve", "main.go")); err == nil {
			return filepath.Abs(d)
		}
	}
	return "", errors.New("bench: cmd/muaa-serve not found; run from the repo root or from bench/")
}

// buildServer compiles cmd/muaa-serve from the working tree into
// .bench_build/ and returns the binary's path and the build time.
func buildServer(root string) (string, time.Duration, error) {
	bin := filepath.Join(root, ".bench_build", "muaa-serve")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/muaa-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("bench: go build ./cmd/muaa-serve: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// cpuPlan is how the two processes share the machine: both on one CPU, the
// last the process is allowed. On this kind of box (two vCPUs that are
// hyper-threads of one core, on a shared host) that is the steadiest layout
// by a wide margin — README.md has the spreads measured for the others. The
// generator and the server then simply take turns, so throughput is the
// reciprocal of their summed CPU per request and no cross-CPU wake-up or
// sibling-thread contention is in the numbers. When the affinity calls fail
// both run unpinned and pinned is false.
type cpuPlan struct {
	Allowed []int `json:"allowed_cpus"`
	CPU     int   `json:"cpu"`
	Pinned  bool  `json:"pinned"`
	taskset string
}

// setAffinity restricts one thread to one CPU.
func setAffinity(tid, cpu int) error {
	var mask [16]uint64
	mask[cpu/64] = 1 << (uint(cpu) % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	return nil
}

// setAffinityAll pins every thread of pid; threads started later inherit
// the mask of the thread that starts them.
func setAffinityAll(pid, cpu int) error {
	for pass := 0; pass < 2; pass++ { // second pass catches threads born during the first
		tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, cpu); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	return nil
}

// planCPUs reads the allowed CPU set and pins this process.
func planCPUs() cpuPlan {
	var mask [16]uint64
	var p cpuPlan
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e == 0 {
		for i := 0; i < len(mask)*64; i++ {
			if mask[i/64]&(1<<(uint(i)%64)) != 0 {
				p.Allowed = append(p.Allowed, i)
			}
		}
	}
	if len(p.Allowed) == 0 {
		return p
	}
	p.CPU = p.Allowed[len(p.Allowed)-1] // the first CPU is where the kernel's own housekeeping tends to run
	if err := setAffinityAll(os.Getpid(), p.CPU); err != nil {
		fmt.Fprintf(os.Stderr, "bench: cannot pin the generator (%v); running unpinned\n", err)
		return p
	}
	p.Pinned = true
	// More Ps than CPUs would have the runtime's spinning threads fight the
	// senders for the one core.
	runtime.GOMAXPROCS(1)
	p.taskset, _ = exec.LookPath("taskset")
	return p
}

// server is one muaa-serve child process.
type server struct {
	cmd     *exec.Cmd
	addr    string // host:port of the serving listener
	debug   string // host:port of the debug listener, "" when not started
	logPath string
	stderr  tailBuffer
	exited  chan struct{} // closed once Wait returned and the log tail is on disk
	waitErr error
}

// children tracks every live child so an error, a signal or a panic can
// reap them all.
var children struct {
	mu   sync.Mutex
	live map[*server]struct{}
}

func reapAll() {
	children.mu.Lock()
	var all []*server
	for s := range children.live {
		all = append(all, s)
	}
	children.mu.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// freeAddr asks the OS for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// logTailBytes is how much of the server's stderr is kept. At the default
// log level the server writes an access-log line per request — tens of
// megabytes a run; writing them all to disk keeps the kernel's writeback
// busy on the measured core, so the bench reads them from a pipe and keeps
// the end.
const logTailBytes = 256 << 10

// tailBuffer keeps the last logTailBytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2*logTailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-logTailBytes:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) tail() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) > logTailBytes {
		return append([]byte(nil), t.buf[len(t.buf)-logTailBytes:]...)
	}
	return append([]byte(nil), t.buf...)
}

// spawn starts bin with production-default flags plus extra. The end of its
// stderr is appended to logPath when it exits (so a restart sequence stays
// in one file).
func spawn(bin string, plan cpuPlan, logPath string, withDebug bool, extra ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("bench: no free loopback port: %w", err)
	}
	s := &server{addr: addr, logPath: logPath, exited: make(chan struct{})}
	args := []string{"-addr", addr}
	if withDebug {
		if s.debug, err = freeAddr(); err != nil {
			return nil, fmt.Errorf("bench: no free loopback port: %w", err)
		}
		args = append(args, "-debug-addr", s.debug)
	}
	args = append(args, extra...)
	name := bin
	if plan.Pinned && plan.taskset != "" {
		name, args = plan.taskset, append([]string{"-c", strconv.Itoa(plan.CPU), bin}, args...)
	}
	s.cmd = exec.Command(name, args...)
	s.cmd.Stderr = &s.stderr // os/exec copies the pipe into it until the child exits
	// If the bench dies without reaping (SIGKILL), the kernel kills the child.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start %s: %w", name, err)
	}
	children.mu.Lock()
	if children.live == nil {
		children.live = map[*server]struct{}{}
	}
	children.live[s] = struct{}{}
	children.mu.Unlock()
	go func() {
		s.waitErr = s.cmd.Wait()
		if f, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
			f.Write(s.stderr.tail())
			f.Close()
		}
		close(s.exited)
	}()
	if plan.Pinned && plan.taskset == "" {
		if err := setAffinityAll(s.cmd.Process.Pid, plan.CPU); err != nil {
			s.stop()
			return nil, fmt.Errorf("bench: pin server: %w", err)
		}
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200, the child exits, or the
// limit passes; it returns the number of polls made.
func (s *server) waitHealthy(limit time.Duration) (polls int, err error) {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-s.exited:
			return polls, fmt.Errorf("bench: server exited before /healthz answered: %v\n%s", s.waitErr, s.logTail())
		default:
		}
		polls++
		if c, err := dial(s.addr); err == nil {
			r := getReq(opOther, "/healthz")
			status, _, err := c.do(&r, "")
			c.close()
			if err == nil && status == 200 {
				return polls, nil
			}
		}
		if time.Now().After(deadline) {
			return polls, fmt.Errorf("bench: /healthz not 200 within %v\n%s", limit, s.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) forget() {
	children.mu.Lock()
	delete(children.live, s)
	children.mu.Unlock()
}

// stop ends the child gracefully: SIGTERM, two seconds, then SIGKILL. It
// returns once the process has been waited for. Safe to call twice.
func (s *server) stop() {
	s.signalAndWait(syscall.SIGTERM, 2*time.Second)
}

// kill is the crash: SIGKILL, no chance to flush.
func (s *server) kill() {
	s.signalAndWait(syscall.SIGKILL, 0)
}

func (s *server) signalAndWait(sig syscall.Signal, grace time.Duration) {
	defer s.forget()
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(sig) // an already-dead child is what we want
	if grace > 0 {
		select {
		case <-s.exited:
			return
		case <-time.After(grace):
			_ = s.cmd.Process.Kill()
		}
	}
	<-s.exited
}

// logTail returns the end of the captured stderr, for error messages.
func (s *server) logTail() string {
	b := s.stderr.tail()
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return "--- server stderr (tail) ---\n" + string(b)
}

// procUsage is what /proc says a process has consumed so far.
type procUsage struct {
	user, sys time.Duration
	hwmMB     float64 // peak resident set (VmHWM)
}

const clockTick = 100.0 // USER_HZ; fixed at 100 on every Linux ABI Go supports

// cpuTime is a process's user+system time so far.
func cpuTime(pid int) (time.Duration, error) {
	u, err := readCPU(pid)
	return u.user + u.sys, err
}

// readCPU reads the times of /proc/<pid>/stat.
func readCPU(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, so 12th and 13th (index 11, 12) here.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return u, fmt.Errorf("bench: unexpected /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	u.user = time.Duration(ut / clockTick * float64(time.Second))
	u.sys = time.Duration(st / clockTick * float64(time.Second))
	return u, nil
}

// readUsage adds the peak resident set to readCPU.
func readUsage(pid int) (procUsage, error) {
	u, err := readCPU(pid)
	if err != nil {
		return u, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			u.hwmMB = kb / 1024
		}
	}
	return u, nil
}

// selfCPU is this process's user+system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// environment is what makes two result files comparable.
type environment struct {
	GitSHA     string  `json:"git_sha"`
	GitDirty   bool    `json:"git_dirty"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	CPUs       cpuPlan `json:"cpus"`
	GenProcs   int     `json:"generator_gomaxprocs"`
	ServeProcs int     `json:"server_gomaxprocs"`
	Conns      int     `json:"conns"`
	BuildS     float64 `json:"build_s"`
}

func describeEnvironment(root string, plan cpuPlan) environment {
	env := environment{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		CPUs:      plan,
		GenProcs:  runtime.GOMAXPROCS(0),
		GitSHA:    "unknown", // the driver's checkout is not a git repository
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
		st, _ := exec.Command("git", "-C", root, "status", "--porcelain").Output()
		env.GitDirty = len(bytes.TrimSpace(st)) > 0
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}
