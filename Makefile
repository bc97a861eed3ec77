GO ?= go

.PHONY: build vet test race bench check serve-smoke fuzz-smoke verify-corpus

build:
	$(GO) build ./...

# vet runs go vet only. The opcode tables hold themselves: the compiler
# rejects a second metadata row for an opcode, core's init panics on a
# second handler, and tests check the rest (TestOpNames,
# TestHandlerTableTotal, TestOpcodeCoverage).
vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race gate covers the concurrency surface added with fpc.Pool:
# TestPoolConcurrentStress drives one shared LoadedImage from 12 goroutines,
# and TestPoolTimesliceStress timeslices processes over one shared pool by
# continuation park and resume from 8.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# End-to-end smoke of the serving subsystem: start fpcd, drive it with
# fpcload, scrape /metrics, assert non-zero pooled runs, drain on SIGTERM.
serve-smoke:
	sh scripts/serve_smoke.sh

# Differential fuzzing smoke: a deterministic 2000-seed sweep through the
# four-way differential oracle (cmd/fpcfuzz), then a short coverage-guided
# shift on each native fuzz target. FuzzVerify feeds the verifier mutated
# code bytes and data words and runs every mutant it admits; FuzzBuild
# feeds arbitrary bytes as module source through the build path and a
# verifying registry. Longer campaigns: raise -n / -fuzztime.
fuzz-smoke:
	$(GO) run ./cmd/fpcfuzz -n 2000
	$(GO) test -fuzz=FuzzDifferential -fuzztime=30s -run '^$$' ./internal/difffuzz
	$(GO) test -fuzz=FuzzPoolReuse -fuzztime=30s -run '^$$' ./internal/difffuzz
	$(GO) test -fuzz=FuzzParkResume -fuzztime=30s -run '^$$' ./internal/difffuzz
	$(GO) test -fuzz=FuzzVerify -fuzztime=30s -run '^$$' ./internal/difffuzz
	$(GO) test -fuzz=FuzzBuild -fuzztime=30s -run '^$$' ./internal/difffuzz

# Verifier admission sweep: seeds 0..19999 through the differential
# oracle, which also checks that (a) every generated program is admitted
# by the static verifier under both linkage policies and (b) Reset
# returns a used machine to its boot memory and allocator state.
verify-corpus:
	$(GO) run ./cmd/fpcfuzz -n 20000

check: build vet test race
