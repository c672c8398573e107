//go:build !linux

package main

import "syscall"

// childProcAttr has no parent-death signal to offer off Linux; the explicit
// cleanup paths are the only teardown there.
func childProcAttr() *syscall.SysProcAttr { return nil }
