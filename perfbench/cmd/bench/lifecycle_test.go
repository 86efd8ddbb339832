package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary act as the runner when re-executed, so the
// lifecycle tests can interrupt a real run from outside.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_AS_RUNNER") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// buildCoopserve builds the daemon from this checkout into a temp dir.
func buildCoopserve(t *testing.T) (root, bin string) {
	t.Helper()
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	bin = t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(bin, "coopserve"), "./cmd/coopserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build coopserve: %v\n%s", err, out)
	}
	return root, bin
}

// startRunner runs the runner as a child with the given flags, returning
// its stdout buffer and a channel of its stderr lines.
func startRunner(t *testing.T, root, bin, work string, args ...string) (*exec.Cmd, *bytes.Buffer, <-chan string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-root", root, "-bin", bin, "-workdir", work}, args...)...)
	cmd.Env = append(os.Environ(), "PERFBENCH_AS_RUNNER=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 1024) // the runner logs a few dozen lines at most
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	return cmd, &stdout, lines
}

// waitExit waits for the runner to exit and asserts it failed without
// printing a result.
func waitExit(t *testing.T, cmd *exec.Cmd, stdout *bytes.Buffer, lines <-chan string, within time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for range lines { // drain stderr so the runner never blocks on it
		}
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("runner exited 0 after being stopped")
		}
	case <-time.After(within):
		_ = cmd.Process.Kill()
		t.Fatalf("runner still running %v after being stopped", within)
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Fatalf("stopped runner printed a result:\n%s", stdout)
	}
}

// assertNoDaemon fails if any process still names the run's work dir on
// its command line (every coopserve the runner starts does, via -snapshot),
// and kills it.
func assertNoDaemon(t *testing.T, work string) {
	t.Helper()
	cmdlines, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range cmdlines {
		b, err := os.ReadFile(p)
		if err != nil || !bytes.Contains(b, []byte(work)) {
			continue
		}
		t.Errorf("process outlived the run: %s: %q", p, bytes.ReplaceAll(b, []byte{0}, []byte{' '}))
		if pid, err := strconv.Atoi(filepath.Base(filepath.Dir(p))); err == nil {
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
	}
}

// TestSignalMidLoadLeavesNoDaemon interrupts a served run while the load is
// running and checks that the runner exits non-zero, prints no result, and
// leaves no coopserve behind.
func TestSignalMidLoadLeavesNoDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("boots coopserve")
	}
	root, bin := buildCoopserve(t)
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) {
			work := t.TempDir()
			cmd, stdout, lines := startRunner(t, root, bin, work, "--workload", "serve-uniform-b64", "--seed", "1", "--seconds", "60")
			timeout := time.After(90 * time.Second)
		wait:
			for {
				select {
				case line, ok := <-lines:
					if !ok {
						t.Fatal("runner exited before the load started")
					}
					if strings.Contains(line, "load started") {
						break wait
					}
				case <-timeout:
					_ = cmd.Process.Kill()
					t.Fatal("load never started")
				}
			}
			time.Sleep(500 * time.Millisecond) // mid-load
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			waitExit(t, cmd, stdout, lines, 30*time.Second)
			assertNoDaemon(t, work)
		})
	}
}

// TestDeadlineLeavesNoDaemon lets a run hit its deadline during set-up.
func TestDeadlineLeavesNoDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("boots coopserve")
	}
	root, bin := buildCoopserve(t)
	work := t.TempDir()
	cmd, stdout, lines := startRunner(t, root, bin, work, "--workload", "serve-uniform-b64", "--seed", "1", "--seconds", "60", "-deadline", "2s")
	waitExit(t, cmd, stdout, lines, 60*time.Second)
	assertNoDaemon(t, work)
}

func TestReadStat(t *testing.T) {
	pid, comm, ppid, _, ok := readStat("/proc/self/stat")
	if !ok || pid != os.Getpid() || ppid != os.Getppid() || comm == "" {
		t.Fatalf("readStat(/proc/self/stat) = %d %q %d %v", pid, comm, ppid, ok)
	}
}
