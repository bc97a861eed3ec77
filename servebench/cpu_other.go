//go:build !amd64

package main

// cpuModel has no portable source off amd64.
func cpuModel() string { return "unknown" }
