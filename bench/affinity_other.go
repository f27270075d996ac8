//go:build !linux

package main

import "os/exec"

// Elsewhere than on Linux nothing is pinned.

func allowedCPUs() ([]int, error) { return nil, nil }

func pinSelf([]int) error { return nil }

func startPinned(cmd *exec.Cmd, _ []int) error { return cmd.Start() }
