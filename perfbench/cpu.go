package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The end-to-end metrics are CPU times, not wall times: the kernel does not
// charge a process for time its virtual CPU was stolen by the hypervisor,
// so CPU time holds still on a shared host where wall time swings with the
// neighbours' load. Wall-clock throughput and latency are still measured
// and printed, and reported as client.* per-layer metrics.

// selfCPU is the benchmark process's own CPU time (user + system).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHZ is the clock-tick rate /proc/<pid>/stat counts in; Linux fixes it
// at 100 for user space.
const userHZ = 100

// procCPU is a process's CPU time (user + system, all threads) from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// daemonsCPU sums the CPU time of the given daemons.
func daemonsCPU(ds []*daemon) (time.Duration, error) {
	var sum time.Duration
	for _, d := range ds {
		c, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		sum += c
	}
	return sum, nil
}
