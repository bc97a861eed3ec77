// Command servebench is the repository's serving benchmark. It drives
// internal/server's Server.ServeHTTP in-process — no sockets — with
// pre-encoded request bodies from a closed loop of two clients, checks
// every response against the I1 reference interpreter, and prints one
// JSON result line:
//
//	servebench --workload call-short --seed 1 --seconds 35 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer ledger, measured by replaying each served request through the
// public calls of every layer it crosses (see README.md). --workload all
// runs every workload in turn. --steady N repeats one workload in N child
// processes with consecutive seeds and prints each end-to-end metric's
// median, quartiles and max/min ratio.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed; every request sequence is a pure function of it")
	seconds := flag.Int("seconds", 35, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced replay")
	steady := flag.Int("steady", 0, "repeat the workload in N child processes (seeds seed..seed+N-1) and print the spread of each end-to-end metric")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *wl == "all" && *steady == 0 {
		if err := runAll(*seed, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "servebench: unknown workload %q (want one of %s, or all)\n", *wl, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *steady > 0 {
		if err := steadyReport(w.name, *seed, *seconds, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 1
		}
		return 0
	}

	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	out, err := json.Marshal(res.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is everything one run produced: the result line, human-readable
// report lines printed before it, and the failures behind a false correct.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	report    []string
}

func (o *outcome) result() result {
	return result{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	}
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
