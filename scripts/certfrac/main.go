// Command certfrac measures the verifier's certified fraction over the
// difffuzz seed corpus: for each generator seed it builds the program
// under both linkage policies, runs the link-time verifier, and counts
// admissions and stack-bounds certificates.
//
// The measurement is recorded in scripts/certfrac/ratchet.json. The first
// recorded measurement is kept as the baseline; -check turns the record
// into a ratchet: the run fails when the freshly measured fraction drops
// below the recorded one, so CI catches a verifier precision regression,
// and the record is left as it is. Without -check the run records itself.
//
//	go run ./scripts/certfrac -n 10000 -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linker"
	"repro/internal/verify"
	"repro/internal/workload"
)

// record is the content of the ratchet file.
type record struct {
	Commit string `json:"commit,omitempty"`
	Date   string `json:"date,omitempty"`
	Note   string `json:"note,omitempty"`
	// Seeds is the corpus size measured (generator seeds 0..Seeds-1).
	Seeds int `json:"seeds"`
	// Admitted / Certified count seeds whose programs pass verification /
	// earn CertStackBounds under the late-bound linkage; the Early variants
	// are the same counts under §6 early binding.
	Admitted       int     `json:"admitted"`
	Certified      int     `json:"certified"`
	Fraction       float64 `json:"fraction"`
	CertifiedEarly int     `json:"certified_early"`
	FractionEarly  float64 `json:"fraction_early"`
	// Baseline is the first recorded measurement, kept for before/after
	// comparison.
	Baseline *record `json:"baseline,omitempty"`
}

func main() {
	var (
		n       = flag.Int("n", 10000, "number of generator seeds to measure")
		start   = flag.Int64("start", 0, "first seed")
		out     = flag.String("out", "scripts/certfrac/ratchet.json", "record file")
		check   = flag.Bool("check", false, "fail when the fraction regresses below the recorded one; leave the record as it is")
		note    = flag.String("note", "", "note stored with the measurement")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent verifier goroutines")
		quiet   = flag.Bool("quiet", false, "suppress the progress line")
	)
	flag.Parse()

	var admitted, certified, certifiedEarly, done atomic.Int64
	seeds := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				p := workload.RandomProgram(seed)
				ok := true
				for _, early := range []bool{false, true} {
					prog, _, err := p.Build(linker.Options{EarlyBind: early})
					if err != nil {
						fmt.Fprintf(os.Stderr, "certfrac: seed %d early=%v: build: %v\n", seed, early, err)
						ok = false
						continue
					}
					rep := verify.Program(prog)
					if !rep.Admitted() {
						ok = false
						continue
					}
					if rep.CertStackBounds {
						if early {
							certifiedEarly.Add(1)
						} else {
							certified.Add(1)
						}
					}
				}
				if ok {
					admitted.Add(1)
				}
				if d := done.Add(1); !*quiet && d%1000 == 0 {
					fmt.Fprintf(os.Stderr, "certfrac: %d/%d seeds verified\n", d, *n)
				}
			}
		}()
	}
	for seed := *start; seed < *start+int64(*n); seed++ {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()

	cur := &record{
		Commit:         gitHead(),
		Date:           time.Now().Format("2006-01-02"),
		Note:           *note,
		Seeds:          *n,
		Admitted:       int(admitted.Load()),
		Certified:      int(certified.Load()),
		Fraction:       frac(int(certified.Load()), *n),
		CertifiedEarly: int(certifiedEarly.Load()),
		FractionEarly:  frac(int(certifiedEarly.Load()), *n),
	}

	var prev *record
	if data, err := os.ReadFile(*out); err == nil {
		prev = new(record)
		if err := json.Unmarshal(data, prev); err != nil {
			fmt.Fprintf(os.Stderr, "certfrac: %s: %v\n", *out, err)
			os.Exit(1)
		}
	}

	fmt.Printf("certfrac: seeds %d: admitted %d, certified %d (%.4f late-bound, %.4f early-bound)\n",
		cur.Seeds, cur.Admitted, cur.Certified, cur.Fraction, cur.FractionEarly)

	if *check {
		if prev == nil {
			fmt.Fprintf(os.Stderr, "certfrac: FAIL: no recorded fraction in %s\n", *out)
			os.Exit(1)
		}
		fmt.Printf("certfrac: recorded fraction %.4f over %d seeds\n", prev.Fraction, prev.Seeds)
		if cur.Fraction < prev.Fraction-1e-9 {
			fmt.Fprintf(os.Stderr, "certfrac: FAIL: fraction %.4f regressed below recorded %.4f\n",
				cur.Fraction, prev.Fraction)
			os.Exit(1)
		}
		return
	}

	switch {
	case prev == nil:
		base := *cur
		base.Note = strings.TrimSpace(base.Note + " (seeded from first measurement)")
		cur.Baseline = &base
	case prev.Baseline != nil:
		cur.Baseline = prev.Baseline
	default:
		cur.Baseline = prev
	}
	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "certfrac:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "certfrac:", err)
		os.Exit(1)
	}
	fmt.Printf("certfrac: wrote %s\n", *out)
}

func frac(k, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
