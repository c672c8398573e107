package main

import "syscall"

// childProcAttr makes the kernel kill a child when the benchmark process dies
// without running its cleanup (SIGKILL, a runtime crash): no program under
// test outlives the run that started it.
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
