package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	m, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// pinSelf confines every thread of this process to cpus. Threads started
// later inherit the mask of the thread that starts them.
func pinSelf(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, maskOf(cpus)); err != nil {
			return fmt.Errorf("pin thread %d: %w", tid, err)
		}
	}
	return nil
}

// startPinned starts cmd confined to cpus, or unconfined when cpus is nil.
// The child inherits the mask of the thread that forks it, so the calling
// thread takes the mask for the fork and then gets its own back.
func startPinned(cmd *exec.Cmd, cpus []int) error {
	if cpus == nil {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	own, err := getAffinity(0)
	if err != nil {
		return err
	}
	if err := setAffinity(0, maskOf(cpus)); err != nil {
		return err
	}
	startErr := cmd.Start()
	if err := setAffinity(0, own); err != nil {
		if startErr == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		return err
	}
	return startErr
}
