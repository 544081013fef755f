// Package leak is the goroutine-leak assertion of the daemon and serving
// tests: after a front has drained, no goroutine of the named component
// may be left behind.
package leak

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Check fails the test if a goroutine with frame in its stack (say
// "server.(*coalescer)") is still alive. A goroutine that has handed over
// its last result may need a moment to return, so Check polls for up to
// two seconds before it reports the survivors' stacks.
func Check(t testing.TB, frame string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		var left []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, frame) {
				left = append(left, g)
			}
		}
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d goroutine(s) with a %s frame left behind:\n\n%s", len(left), frame, strings.Join(left, "\n\n"))
			return
		}
	}
}
