package harness

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ShardSet is one fresh pair (or n-tuple) of `promptd shard` processes
// on unix sockets in a private temp dir. A shard mirrors the dictionary
// of the first coordinator that talks to it and refuses the next one,
// so every stream constructed gets its own set.
type ShardSet struct {
	Addrs []string
	dir   string
	cmds  []*exec.Cmd
	done  []chan struct{} // closed when the shard's stdout reaches EOF
}

var (
	liveMu sync.Mutex
	live   = map[*ShardSet]struct{}{}
)

// StartShards launches n shard processes serving the named queries and
// returns once each has printed its "listening" line. Sockets live in a
// fresh directory under tmpRoot; tmpRoot should be a short relative
// path, because a unix socket address is limited to about 100 bytes.
func StartShards(promptd, tmpRoot string, n int, queries string) (*ShardSet, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "uds-")
	if err != nil {
		return nil, err
	}
	s := &ShardSet{dir: dir}
	liveMu.Lock()
	live[s] = struct{}{}
	liveMu.Unlock()
	for i := 0; i < n; i++ {
		addr := "unix:" + filepath.Join(dir, fmt.Sprintf("s%d.sock", i))
		cmd := exec.Command(promptd, "shard", "-listen", addr, "-index", strconv.Itoa(i), "-queries", queries)
		cmd.Stderr = os.Stderr
		// A backstop only: Stop is the normal path. If this process dies
		// without running it (SIGKILL), the kernel reaps the shard.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err != nil {
			s.Stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			s.Stop()
			return nil, fmt.Errorf("starting shard %d: %w", i, err)
		}
		ready := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			sc := bufio.NewScanner(out)
			signalled := false
			for sc.Scan() {
				if !signalled && strings.Contains(sc.Text(), "listening") {
					signalled = true
					close(ready)
				}
			}
			_, _ = io.Copy(io.Discard, out) // a line too long for the scanner: keep draining
		}()
		s.cmds = append(s.cmds, cmd)
		s.done = append(s.done, done)
		s.Addrs = append(s.Addrs, addr)
		select {
		case <-ready:
		case <-done:
			s.Stop()
			return nil, fmt.Errorf("shard %d exited before listening", i)
		case <-time.After(20 * time.Second):
			s.Stop()
			return nil, fmt.Errorf("shard %d did not start listening within 20 s", i)
		}
	}
	return s, nil
}

// Pids lists the shard process ids.
func (s *ShardSet) Pids() []int {
	pids := make([]int, len(s.cmds))
	for i, c := range s.cmds {
		pids[i] = c.Process.Pid
	}
	return pids
}

// Stop kills every shard by pid, waits for each to end, and removes the
// socket directory. It is safe to call more than once.
func (s *ShardSet) Stop() {
	liveMu.Lock()
	delete(live, s)
	liveMu.Unlock()
	for i, c := range s.cmds {
		if c.Process == nil {
			continue
		}
		_ = c.Process.Kill() // already exited is fine
		<-s.done[i]
		_ = c.Wait() // reaps; the error is the kill signal we sent
	}
	s.cmds, s.done = nil, nil
	_ = os.RemoveAll(s.dir)
}

// StopAllShards stops every shard set still running: the exit path for
// SIGINT and for fatal errors.
func StopAllShards() {
	liveMu.Lock()
	sets := make([]*ShardSet, 0, len(live))
	for s := range live {
		sets = append(sets, s)
	}
	liveMu.Unlock()
	for _, s := range sets {
		s.Stop()
	}
}

// CPUSeconds is the CPU time the processes' threads have consumed so
// far; pid 0 means this process. It sums the on-CPU nanoseconds of
// /proc/<pid>/task/*/schedstat, which — unlike the clock-tick counters
// of /proc/<pid>/stat — resolve a chunk of a few hundred milliseconds.
// A process that is gone contributes nothing.
func CPUSeconds(pids ...int) float64 {
	var ns int64
	for _, pid := range pids {
		tasks, err := filepath.Glob(procPath(pid, "task/*/schedstat"))
		if err != nil {
			continue
		}
		for _, t := range tasks {
			b, err := os.ReadFile(t)
			if err != nil {
				continue // the thread exited between the glob and the read
			}
			if f := strings.Fields(string(b)); len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				ns += v
			}
		}
	}
	return float64(ns) / 1e9
}

// PeakRSSMB is the sum of the processes' resident-set high-water marks
// (VmHWM); pid 0 means this process.
func PeakRSSMB(pids ...int) float64 {
	var kb int64
	for _, pid := range pids {
		b, err := os.ReadFile(procPath(pid, "status"))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					v, _ := strconv.ParseInt(f[1], 10, 64)
					kb += v
				}
			}
		}
	}
	return float64(kb) / 1024
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return "/proc/" + strconv.Itoa(pid) + "/" + file
}
