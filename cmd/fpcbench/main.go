// Command fpcbench regenerates every experiment table of the reproduction
// (the tables and quantitative claims of the paper's evaluation), printing
// paper-vs-measured checks for each. With -parallel N it instead drives a
// shared machine pool from N goroutines and reports serving throughput.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	fpc "repro"
	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	only := flag.String("only", "", "run a single experiment by id (e.g. E7 or A2)")
	ablations := flag.Bool("ablations", false, "also run the design-parameter ablation sweeps (A1-A5)")
	parallel := flag.Int("parallel", 0, "drive a shared machine pool with N worker goroutines (0 = run experiments)")
	calls := flag.Int("calls", 4096, "total calls to serve in -parallel mode")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON results instead of tables")
	flag.Parse()
	if err := checkServingFlags(*parallel, *calls); err != nil {
		fmt.Fprintln(os.Stderr, "fpcbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *parallel > 0 {
		if err := runParallel(*parallel, *calls); err != nil {
			fmt.Fprintln(os.Stderr, "fpcbench:", err)
			os.Exit(1)
		}
		return
	}
	results, err := experiments.All()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpcbench:", err)
		os.Exit(1)
	}
	if *ablations || (*only != "" && (*only)[0] == 'A') {
		abl, err := experiments.Ablations()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpcbench:", err)
			os.Exit(1)
		}
		results = append(results, abl...)
	}
	if *jsonOut {
		if err := emitJSON(os.Stdout, results, *only); err != nil {
			fmt.Fprintln(os.Stderr, "fpcbench:", err)
			os.Exit(1)
		}
	} else {
		for _, r := range results {
			if *only != "" && r.ID != *only {
				continue
			}
			fmt.Println(r)
		}
	}
	failed := 0
	for _, r := range results {
		if !r.Passed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "fpcbench: %d experiments with failing checks\n", failed)
		os.Exit(1)
	}
}

// checkServingFlags rejects -parallel and -calls values that name no
// serving run: a negative worker count (only 0 selects the experiments),
// or a non-positive call count in -parallel mode.
func checkServingFlags(parallel, calls int) error {
	if parallel < 0 {
		return fmt.Errorf("-parallel %d: want a worker count > 0, or 0 to run the experiments", parallel)
	}
	if parallel > 0 && calls <= 0 {
		return fmt.Errorf("-calls %d: want at least one call in -parallel mode", calls)
	}
	return nil
}

// jsonResult is the machine-readable form of one experiment: the key
// scalar values (cycles, references, hit rates — whatever the experiment
// exposes) plus its paper-vs-measured checks, so the perf trajectory can
// be diffed across commits.
type jsonResult struct {
	ID     string             `json:"id"`
	Title  string             `json:"title"`
	Passed bool               `json:"passed"`
	Values map[string]float64 `json:"values,omitempty"`
	Checks []jsonCheck        `json:"checks,omitempty"`
}

type jsonCheck struct {
	Claim string `json:"claim"`
	Got   string `json:"got"`
	Pass  bool   `json:"pass"`
}

func emitJSON(w *os.File, results []*experiments.Result, only string) error {
	out := make([]jsonResult, 0, len(results))
	for _, r := range results {
		if only != "" && r.ID != only {
			continue
		}
		jr := jsonResult{ID: r.ID, Title: r.Title, Passed: r.Passed(), Values: r.Values}
		for _, c := range r.Checks {
			jr.Checks = append(jr.Checks, jsonCheck{Claim: c.Claim, Got: c.Got, Pass: c.Pass})
		}
		out = append(out, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runParallel serves `calls` fib(15) calls from `workers` goroutines over
// one Pool (one shared LoadedImage, machines reset between runs), checks
// every result, and prints wall-clock throughput plus the pool's aggregate
// accounting — the serving-layer view of the paper's fast-call machinery.
func runParallel(workers, calls int) error {
	p := workload.Fib(15)
	cfg := fpc.ConfigFastCalls
	prog, _, err := p.Build(fpc.DefaultLinkOptions(cfg))
	if err != nil {
		return err
	}
	pool, err := fpc.NewPool(prog, cfg)
	if err != nil {
		return err
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		bad  int
		next = make(chan struct{}, calls)
	)
	for i := 0; i < calls; i++ {
		next <- struct{}{}
	}
	close(next)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range next {
				res, err := pool.Call(prog.Entry, p.Args...)
				if err != nil || len(res) != 1 || res[0] != *p.Want {
					mu.Lock()
					bad++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if bad > 0 {
		return fmt.Errorf("%d of %d calls returned wrong results", bad, calls)
	}
	mt := pool.Metrics()
	fmt.Printf("parallel serving: %d workers (GOMAXPROCS=%d), %d calls of %s\n",
		workers, runtime.GOMAXPROCS(0), calls, p.Name)
	fmt.Printf("  wall time        %v\n", wall.Round(time.Microsecond))
	fmt.Printf("  throughput       %.0f calls/s\n", float64(calls)/wall.Seconds())
	fmt.Printf("  sim instructions %d  sim cycles %d\n", mt.Instructions, mt.Cycles)
	fmt.Printf("  fast transfers   %d/%d (%.1f%% at jump speed)\n",
		mt.FastTransfers, mt.CallsAndReturns(), 100*mt.FastFraction())
	return nil
}
