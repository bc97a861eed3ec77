package fpc

import "repro/internal/core"

// KeptMachines counts the idle kept machines a Get could claim. It claims
// each to count it and marks it idle again, so it must not run
// concurrently with the pool's other methods.
func KeptMachines(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, m := range p.kept {
		if core.ClaimIdle(m) {
			core.MarkIdle(m)
			n++
		}
	}
	return n
}
