package main

import (
	"errors"
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

// errShuttingDown refuses new processes once cleanup has begun.
var errShuttingDown = errors.New("supervisor is shutting down")

// stopGrace is how long a child gets to exit after SIGTERM before SIGKILL.
const stopGrace = 5 * time.Second

// supervisor owns every process the runner starts. Each child runs in its
// own process group and is killed by the kernel if the runner dies
// (Pdeathsig); stop sends SIGTERM to the group, escalates to SIGKILL after
// stopGrace and reaps. shutdown stops everything still running and refuses
// new starts, so the signal handler, the watchdog and the normal exit path
// can all call it.
type supervisor struct {
	mu     sync.Mutex
	closed bool
	live   map[*child]struct{}
	pgids  []int // every group ever started, for the leak check
}

// child is one supervised process.
type child struct {
	name string
	pid  int
	done chan struct{} // closed once Wait has reaped the process
	err  error         // Wait's result, valid after done
	once sync.Once
}

func newSupervisor() *supervisor { return &supervisor{live: map[*child]struct{}{}} }

// start runs bin with args in a new process group.
func (s *supervisor) start(name, bin string, args []string, stdout, stderr *os.File) (*child, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errShuttingDown
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, pid: cmd.Process.Pid, done: make(chan struct{})}
	s.live[c] = struct{}{}
	s.pgids = append(s.pgids, c.pid)
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// exited reports whether the child has already exited.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop terminates c's process group and reaps it. Concurrent and repeated
// calls all return only once c is gone.
func (s *supervisor) stop(c *child) {
	c.once.Do(func() {
		if !c.exited() {
			_ = syscall.Kill(-c.pid, syscall.SIGTERM)
			t := time.NewTimer(stopGrace)
			select {
			case <-c.done:
			case <-t.C:
				_ = syscall.Kill(-c.pid, syscall.SIGKILL)
				<-c.done
			}
			t.Stop()
		}
		// Anything the child left behind in its group goes too.
		_ = syscall.Kill(-c.pid, syscall.SIGKILL)
		s.mu.Lock()
		delete(s.live, c)
		s.mu.Unlock()
	})
}

// shutdown refuses new children and stops every live one concurrently.
func (s *supervisor) shutdown() {
	s.mu.Lock()
	s.closed = true
	var cs []*child
	for c := range s.live {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *child) {
			defer wg.Done()
			s.stop(c)
		}(c)
	}
	wg.Wait()
}

// survivors scans /proc for processes that are this runner's children or
// members of a group it started, kills them, and describes them. An empty
// result means nothing the runner started outlives it.
func (s *supervisor) survivors() []string {
	s.mu.Lock()
	groups := map[int]bool{}
	for _, g := range s.pgids {
		groups[g] = true
	}
	s.mu.Unlock()
	self := os.Getpid()
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var out []string
	for _, path := range stats {
		pid, comm, ppid, pgrp, ok := readStat(path)
		if !ok || pid == self || (ppid != self && !groups[pgrp]) {
			continue
		}
		_ = syscall.Kill(pid, syscall.SIGKILL)
		out = append(out, fmt.Sprintf("%s (pid %d, ppid %d, pgid %d)", comm, pid, ppid, pgrp))
	}
	return out
}

// readStat parses pid, comm, ppid and pgrp from /proc/<pid>/stat.
func readStat(path string) (pid int, comm string, ppid, pgrp int, ok bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, "", 0, 0, false
	}
	s := string(b)
	lp, rp := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
	if lp < 0 || rp < lp {
		return 0, "", 0, 0, false
	}
	f := strings.Fields(s[rp+1:]) // state ppid pgrp ...
	if len(f) < 3 {
		return 0, "", 0, 0, false
	}
	pid, err1 := strconv.Atoi(strings.TrimSpace(s[:lp]))
	ppid, err2 := strconv.Atoi(f[1])
	pgrp, err3 := strconv.Atoi(f[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, "", 0, 0, false
	}
	return pid, s[lp+1 : rp], ppid, pgrp, true
}

// vmHWM returns a process's peak resident set size in MiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
