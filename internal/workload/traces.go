package workload

import (
	"math/rand"

	"repro/internal/ifu"
	"repro/internal/regbank"
)

// Event is one control transfer in a synthetic trace.
type Event byte

// Trace events.
const (
	Call Event = iota
	Return
)

// TraceConfig shapes a synthetic call/return trace. Real programs'
// call/return streams are depth-first walks of call trees whose fanout is
// loop-dominated: frames near the top of an excursion make many calls
// (loops calling helpers), frames deeper down make few. The generator
// draws each activation's call count from a geometric distribution whose
// mean is Levels[depth]; depth is therefore mean-reverting with occasional
// deep excursions — the property behind the paper's §7.1 observation that
// "long runs of calls nearly uninterrupted by returns, or vice versa, are
// quite rare".
//
// DefaultLevels is calibrated so the replay reproduces the paper's
// reported bands — under 5% bank trouble with 4 banks, under 1% with 8,
// and a >95% return-stack hit rate at depth 8 — standing in for the
// "fragmentary Mesa statistics" we cannot rerun.
type TraceConfig struct {
	Events int
	Levels []float64 // mean calls per activation by depth; nil = DefaultLevels
	Seed   int64
}

// DefaultLevels is the calibrated per-depth fanout profile (see
// TraceConfig).
var DefaultLevels = []float64{10, 5, 1.5, 0.2, 0.08}

// Generate produces the call/return event stream of depth-first walks
// over random call trees, starting a fresh top-level call whenever a tree
// finishes.
func Generate(cfg TraceConfig) []Event {
	levels := cfg.Levels
	if len(levels) == 0 {
		levels = DefaultLevels
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// geometric on {0,1,2,...} with mean m has continuation m/(1+m)
	geo := func(mean float64) int {
		p := mean / (1 + mean)
		k := 0
		for rng.Float64() < p {
			k++
		}
		return k
	}
	meanAt := func(depth int) float64 {
		if depth < len(levels) {
			return levels[depth]
		}
		// beyond the profile, halve per level so trees stay finite
		m := levels[len(levels)-1]
		for i := len(levels); i <= depth && m > 0.001; i++ {
			m *= 0.5
		}
		return m
	}
	events := make([]Event, 0, cfg.Events)
	var remaining []int // children left to make, per open activation
	for len(events) < cfg.Events {
		if len(remaining) == 0 {
			// a fresh top-level call; guarantee at least one child so the
			// stream isn't dominated by trivial roots
			events = append(events, Call)
			remaining = append(remaining, 1+geo(meanAt(0)))
			continue
		}
		top := len(remaining) - 1
		if remaining[top] > 0 {
			remaining[top]--
			events = append(events, Call)
			remaining = append(remaining, geo(meanAt(top+1)))
		} else {
			remaining = remaining[:top]
			events = append(events, Return)
		}
	}
	return events
}

// ReplayStats summarizes a trace replay against the IFU return stack and
// the register banks — the E5 and E7 sweeps without the full machine.
type ReplayStats struct {
	Calls, Returns uint64
	RSHits         uint64 // returns served by the return stack
	RSEvictions    uint64 // calls that flushed the oldest entry
	BankOverflows  uint64 // calls whose fresh stack bank flushed a victim
	BankUnderflows uint64 // returns that reloaded a caller's bank
	MaxDepth       int
}

// RSHitRate is the fraction of returns served by the return stack.
func (s ReplayStats) RSHitRate() float64 {
	if s.Returns == 0 {
		return 0
	}
	return float64(s.RSHits) / float64(s.Returns)
}

// TroubleRate is (overflow+underflow)/XFERs — the §7.1 bank statistic.
func (s ReplayStats) TroubleRate() float64 {
	x := s.Calls + s.Returns
	if x == 0 {
		return 0
	}
	return float64(s.BankOverflows+s.BankUnderflows) / float64(x)
}

// Replay runs a trace against a return stack of the given depth and a
// bank file with frameBanks banks for local frames (plus one for the
// evaluation stack, per §7.2), reproducing the paper's bookkeeping: on a
// call the stack bank is renamed to the callee and a fresh stack bank is
// acquired (possibly flushing the oldest); on a return the callee's bank
// is freed and the caller's reloaded if it was evicted.
func Replay(trace []Event, rsDepth, frameBanks int) ReplayStats {
	var st ReplayStats
	rs := ifu.New(rsDepth)
	banks := frameBanks
	if banks > 0 {
		banks++ // the evaluation-stack bank
	}
	bf := regbank.New(banks, 16)
	type frame struct{ lf uint16 }
	var stack []frame
	next := uint16(0x1000)
	var stackBank int = -1
	if banks > 0 {
		stackBank, _ = bf.Acquire(regbank.OwnerStack)
	}
	depth := 0
	for _, ev := range trace {
		switch ev {
		case Call:
			st.Calls++
			depth++
			if depth > st.MaxDepth {
				st.MaxDepth = depth
			}
			lf := next
			next += 64
			if len(stack) > 0 {
				if _, evicted := rs.Push(ifu.Entry{LF: stack[len(stack)-1].lf, CalleeLF: lf}); evicted {
					st.RSEvictions++
				}
			} else {
				rs.Push(ifu.Entry{LF: 0xFFFE, CalleeLF: lf})
			}
			stack = append(stack, frame{lf: lf})
			if banks > 0 {
				// rename stack bank to callee, acquire a fresh stack bank
				bf.Rename(stackBank, int32(lf))
				b, evicted := bf.Acquire(regbank.OwnerStack)
				if evicted {
					st.BankOverflows++
				}
				stackBank = b
			}
		case Return:
			if len(stack) == 0 {
				continue
			}
			st.Returns++
			depth--
			callee := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := rs.Pop(); ok {
				st.RSHits++
			}
			if banks > 0 {
				if b := bf.Lookup(callee.lf); b >= 0 {
					bf.Release(b)
				}
				if len(stack) > 0 {
					caller := stack[len(stack)-1]
					if bf.Lookup(caller.lf) < 0 {
						st.BankUnderflows++
						bf.Acquire(int32(caller.lf))
					}
				}
			}
		}
	}
	return st
}
