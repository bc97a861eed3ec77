//go:build amd64

package main

import "strings"

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// cpuModel reads the processor's brand string with CPUID.
func cpuModel() string {
	if top, _, _, _ := cpuid(0x80000000, 0); top < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range [4]uint32{a, bx, c, d} {
			b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}
