//go:build !linux

package refmodel

import "testing"

// canFault reports that faultSegment works here: it needs Linux's
// /proc/self/fd and dup3.
const canFault = false

func faultSegment(t testing.TB, _ string, _ bool) error {
	t.Skip("injecting a disk fault needs Linux")
	return nil
}
