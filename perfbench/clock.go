package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time the process has used so far, summed over its
// threads. Time the host steals from the virtual machine and time other
// processes hold the CPU are not in it, so on a shared host it measures the
// program's work where wall time also measures its neighbours.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// stopwatch reads wall time and process CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuNow()} }

// elapsed returns the wall and CPU time since the watch started.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuNow() - s.cpu
}
