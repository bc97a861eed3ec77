package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"

	fpc "repro"
	"repro/internal/interp"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/workload"
)

const (
	// clients is the closed loop's width: one per CPU of the reference box
	// (nproc = 2), each waiting for its reply like fpcload and /session
	// chains do.
	clients = 2
	// cacheImages is the registry's image cap (fpcd -cache-images). It is
	// the one departure from fpcd's defaults: the default 256 MiB byte
	// budget holds ~900 of these images, and filling it would make
	// submit-churn's set-up a second of work and its heap a quarter GiB.
	cacheImages = 64
	// churnPool is how many distinct programs each submit-churn client
	// cycles through. It is far above cacheImages, so a program comes
	// back only after it has been evicted: its next submission is a miss
	// again, whatever the interleaving of the two clients.
	churnPool = 512
	// churnRecent is how many of its own latest programs a submit-churn
	// client resubmits from; far below cacheImages, so they are resident.
	churnRecent = 4
)

// machineConfig is fpcd's default machine: the paper's I4.
var machineConfig = fpc.ConfigFastCalls

// spec is one distinct request the benchmark sends: a program, its
// arguments, the pre-encoded body, and the reference answer.
type spec struct {
	prog    *workload.Program
	sources map[string]string // module sources with templates expanded
	args    []fpc.Word
	run     bool   // POST /run (submit-or-hit) instead of POST /call/{hash}
	hash    string // content hash of the linked program
	path    string
	body    []byte
	tmpl    *http.Request

	// results and output come from the I1 reference interpreter.
	results []uint16
	output  []uint16

	// counts are the simulated instructions and cycles of the first
	// response; every later response must repeat them exactly.
	mu     sync.Mutex
	known  bool
	steps  uint64
	cycles uint64
}

// entry is the "module.proc" name /run takes.
func (s *spec) entry() string { return s.prog.Module + "." + s.prog.Proc }

// plan is a workload instantiated for one seed.
type plan struct {
	specs   []*spec
	boot    *spec   // the server's own program, served by /call/{BootHash}
	admit   []*spec // further images admitted during set-up
	prefill []*spec // submit-churn's registry pre-fill, never requested
	warmup  int     // requests per client before timing
	// replaced counts random programs redrawn because their reference
	// run failed.
	replaced int
	seq      func(client int) func() int
}

type workloadDef struct {
	name string
	why  string
	plan func(seed int64) (*plan, error)
}

var workloads = map[string]*workloadDef{
	"call-short": {
		name: "call-short",
		why:  "a few hundred simulated instructions per /call/{hash}, so JSON, admission, registry, pool, Metrics, Reset and GC dominate",
		plan: planCallShort,
	},
	"engine-mix": {
		name: "engine-mix",
		why:  "the 11 corpus programs scaled past 10^4 instructions a request, so dispatch on the threaded and checked tables dominates",
		plan: planEngineMix,
	},
	"submit-churn": {
		name: "submit-churn",
		why:  "half first-sight /run submissions that compile, link, verify, load and evict; half source-memo hits",
		plan: planSubmitChurn,
	},
}

// bootProgram is the program every benchmark server boots with, as fpcd
// boots with its own: fib, certified and write-free.
func bootProgram(n int) *workload.Program { return workload.Fib(n) }

// planCallShort: three resident images whose requests run 52-329
// simulated instructions (about 5 µs of dispatch) each, lengths kept
// close so latency has one mode — fib on the boot image (certified,
// write-free: Reset is elided), traps (certified, writes a global: full
// Reset) and sieve (uncertified: the checked table; every sieve size
// below 9 is certified). Dispatch is about a fifth of request time.
func planCallShort(seed int64) (*plan, error) {
	fib, err := newSpec(bootProgram(3), false)
	if err != nil {
		return nil, err
	}
	traps, err := newSpec(workload.Traps(2), false)
	if err != nil {
		return nil, err
	}
	sieve, err := newSpec(workload.Sieve(9), false)
	if err != nil {
		return nil, err
	}
	specs := []*spec{fib, traps, sieve}
	return &plan{
		specs:  specs,
		boot:   fib,
		admit:  []*spec{traps, sieve},
		warmup: 600 * 4 * len(specs),
		seq:    shuffledBlocks(seed, len(specs), 4),
	}, nil
}

// engineMix is the corpus of workload.Corpus() with every program scaled
// to 12-40k simulated instructions (0.35-0.95 ms of dispatch on the
// reference box), so per-request overhead stays a few percent and the
// programs' latencies sit close together. Sizes keep sort, sieve and
// queens on the checked table (the verifier certifies some sieve sizes,
// e.g. 250 and 500) and the rest certified.
func engineMix() []*workload.Program {
	return []*workload.Program{
		bootProgram(15),
		workload.Ackermann(2, 28),
		workload.Tak(12, 8, 4),
		workload.Sort(72),
		workload.Sieve(450),
		workload.Queens(5),
		workload.CallChain(600),
		workload.Coroutines(900),
		workload.Interfaces(660),
		workload.Pressure(440),
		workload.Traps(920),
	}
}

func planEngineMix(seed int64) (*plan, error) {
	var specs []*spec
	for _, p := range engineMix() {
		s, err := newSpec(p, false)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return &plan{
		specs:  specs,
		boot:   specs[0],
		admit:  specs[1:],
		warmup: 22 * len(specs),
		seq:    shuffledBlocks(seed, len(specs), 1),
	}, nil
}

// planSubmitChurn: each client owns churnPool random programs. Every pair
// of its requests is one first sighting (the next program of its pool,
// last seen churnPool programs ago and long evicted) and one resubmission
// of one of its churnRecent latest programs (a source-memo hit), in a
// seed-drawn order. The registry is filled to its cap during set-up, so
// every timed miss also evicts.
func planSubmitChurn(seed int64) (*plan, error) {
	progs, replaced, err := randomPrograms(seed, clients*churnPool+cacheImages)
	if err != nil {
		return nil, err
	}
	boot, err := newSpec(bootProgram(3), false)
	if err != nil {
		return nil, err
	}
	pl := &plan{boot: boot, warmup: 200, replaced: replaced}
	pl.specs = append(pl.specs, progs[:clients*churnPool]...)
	pl.prefill = progs[clients*churnPool:]
	pl.seq = func(client int) func() int {
		rng := rand.New(rand.NewSource(seed*clients + int64(client) + 1))
		base := client * churnPool
		next := 0
		var recent []int
		var pending []int
		return func() int {
			if len(pending) == 0 {
				miss := base + next%churnPool
				next++
				hit := miss
				if len(recent) > 0 {
					hit = recent[rng.Intn(len(recent))]
				}
				if rng.Intn(2) == 0 && len(recent) > 0 {
					pending = []int{hit, miss}
				} else {
					pending = []int{miss, hit}
				}
				recent = append(recent, miss)
				if len(recent) > churnRecent {
					recent = recent[1:]
				}
			}
			i := pending[0]
			pending = pending[1:]
			return i
		}
	}
	return pl, nil
}

// randomPrograms draws n /run specs from workload.RandomProgram with seeds
// derived from seed, computing the references on two goroutines. A draw
// whose reference run fails is replaced by the next, so the workload holds
// only requests that succeed; replaced counts those draws.
func randomPrograms(seed int64, n int) (specs []*spec, replaced int, err error) {
	out := make([]*spec, n)
	errs := make([]error, clients)
	skips := make([]int, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += clients {
				for try := int64(0); ; try++ {
					p := workload.RandomProgram(seed<<24 + int64(i)<<4 + try)
					s, err := newSpec(p, true)
					if err == nil {
						out[i] = s
						break
					}
					if try == 15 {
						errs[w] = err
						return
					}
					skips[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return nil, 0, err
		}
		replaced += skips[w]
	}
	return out, replaced, nil
}

// shuffledBlocks returns each client's request sequence over n specs:
// blocks holding every spec `copies` times, each shuffled by a
// seed-derived generator. Every block has the same mix, so the mix of any
// run is the same whatever the seed or the number of requests completed.
func shuffledBlocks(seed int64, n, copies int) func(client int) func() int {
	return func(client int) func() int {
		rng := rand.New(rand.NewSource(seed*clients + int64(client) + 1))
		var block []int
		return func() int {
			if len(block) == 0 {
				for c := 0; c < copies; c++ {
					for i := 0; i < n; i++ {
						block = append(block, i)
					}
				}
				rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			}
			i := block[0]
			block = block[1:]
			return i
		}
	}
}

// newSpec builds one request: the reference answer from the I1
// interpreter, the content hash, and the pre-encoded body. run selects
// POST /run; otherwise the request is POST /call/{hash} with p's args.
func newSpec(p *workload.Program, run bool) (*spec, error) {
	s := &spec{prog: p, sources: expandSources(p), args: p.Args, run: run}
	ast, err := p.Parse()
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", p.Name, err)
	}
	ip := interp.New(ast)
	res, err := ip.Run(p.Module, p.Proc, p.Args...)
	out := ip.Output
	ip.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", p.Name, err)
	}
	if p.Want != nil && (len(res) != 1 || res[0] != *p.Want) {
		return nil, fmt.Errorf("%s: reference result %v, want %d", p.Name, res, *p.Want)
	}
	s.results, s.output = words16(res), words16(out)

	prog, _, err := p.Build(fpc.DefaultLinkOptions(machineConfig))
	if err != nil {
		return nil, err
	}
	s.hash = prog.ContentHash()

	args := make([]int64, len(p.Args))
	for i, a := range p.Args {
		args[i] = int64(a)
	}
	if run {
		s.path = "/run"
		s.body, err = json.Marshal(server.RunRequest{Modules: s.sources, Entry: s.entry(), Args: args})
	} else {
		s.path = "/call/" + s.hash
		s.body, err = json.Marshal(server.CallRequest{Args: args})
	}
	if err != nil {
		return nil, err
	}
	s.tmpl, err = http.NewRequest(http.MethodPost, s.path, nil)
	return s, err
}

// expandSources returns p's module sources as a client would send them.
// workload.Interfaces is a %N% template that Program.Build and Parse fill
// in; set-up checks that these sources link to the same content hash.
func expandSources(p *workload.Program) map[string]string {
	var n int
	fmt.Sscanf(p.Name, "interfaces(%d)", &n)
	out := make(map[string]string, len(p.Sources))
	for k, v := range p.Sources {
		out[k] = strings.ReplaceAll(v, "%N%", fmt.Sprint(n))
	}
	return out
}

// sourceKey is the registry memo key a /run of s is filed under.
func (s *spec) sourceKey() string { return registry.SourceKey(s.sources, s.entry()) }

func words16(ws []fpc.Word) []uint16 {
	out := make([]uint16, len(ws))
	for i, w := range ws {
		out[i] = uint16(w)
	}
	return out
}
