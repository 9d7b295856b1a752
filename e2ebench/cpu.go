package main

import "syscall"

// cpuNow returns the process's user+system CPU time in ns.
func cpuNow() int64 {
	user, sys := cpuSplit()
	return user + sys
}

// cpuSplit returns the process's user and system CPU time in ns.
func cpuSplit() (user, sys int64) {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano(), ru.Stime.Nano()
}
