package refmodel

import (
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
)

// canFault reports that faultSegment works here.
const canFault = true

// faultSegment turns the next write to dir's active WAL segment into a
// kernel error, with no seam in the code under test: it finds the segment's
// descriptor under /proc/self/fd and dup3s over it /dev/full, whose writes
// fail with ENOSPC, or (fsync) a pipe's write end, which takes the write and
// fails the fsync with EINVAL. It returns that errno.
func faultSegment(t testing.TB, dir string, fsync bool) error {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	target, cause := (*os.File)(nil), error(syscall.ENOSPC)
	if fsync {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		target, cause = w, syscall.EINVAL
	} else if target, err = os.OpenFile("/dev/full", os.O_WRONLY, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { target.Close() })
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fds {
		path, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || filepath.Dir(path) != dir || filepath.Ext(path) != ".log" {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err == nil {
			err = syscall.Dup3(int(target.Fd()), fd, syscall.O_CLOEXEC)
		}
		if err != nil {
			t.Fatal(err)
		}
		return cause
	}
	t.Fatalf("no open WAL segment in %s", dir)
	return nil
}
