package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
)

// child is one benchmark run in a child process: its result line and the
// record fields the modes below read.
type child struct {
	out    []byte
	res    result
	record struct {
		Spin      map[string]float64 `json:"host_spin_ns"`
		CPUUtil   float64            `json:"cpu_util"`
		SimInstr  float64            `json:"siminstr_per_req"`
		SimCycles float64            `json:"simcycles_per_req"`
	}
}

// runChild runs this benchmark binary on one workload and seed.
func runChild(workload string, seed int64, seconds, trace int) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	c := &child{out: out}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &c.res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result: %w", workload, seed, err)
	}
	var rec struct {
		Record json.RawMessage `json:"record"`
	}
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		return nil, fmt.Errorf("%s seed %d: record: %w", workload, seed, err)
	}
	if err := json.Unmarshal(rec.Record, &c.record); err != nil {
		return nil, fmt.Errorf("%s seed %d: record: %w", workload, seed, err)
	}
	if !c.res.Correct || c.res.Failed > 0 {
		return c, fmt.Errorf("%s seed %d: correct %v, %d of %d failed", workload, seed, c.res.Correct, c.res.Failed, c.res.Attempted)
	}
	return c, nil
}

// runAll runs every workload once with one seed, each in a child process,
// and passes their output through.
func runAll(seed int64, seconds, trace int) error {
	var failed []string
	for _, name := range workloadNames() {
		fmt.Printf("== %s\n", name)
		c, err := runChild(name, seed, seconds, trace)
		if c != nil {
			os.Stdout.Write(c.out)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %v", failed)
	}
	return nil
}

// steadyReport runs the workload n times, each in a child process with
// the next seed, and prints each end-to-end metric's median, quartiles,
// spread (IQR over median) and max/min ratio — the evidence the bounds in
// BENCHMARK.json are set from.
func steadyReport(workload string, seed int64, seconds, n int) error {
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		c, err := runChild(workload, s, seconds, 0)
		if err != nil {
			return err
		}
		fmt.Printf("seed %d: host_spin_ns=%.0f/%.0f cpu_util=%.3f siminstr_per_req=%.4f simcycles_per_req=%.4f",
			s, c.record.Spin["before"], c.record.Spin["after"], c.record.CPUUtil, c.record.SimInstr, c.record.SimCycles)
		for _, name := range sortedKeys(c.res.Metrics) {
			m := c.res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			fmt.Printf(" %s=%.6g", name, m.Value)
		}
		fmt.Println()
	}
	summary := map[string]any{}
	fmt.Printf("%-16s %-4s %12s %12s %12s %8s %8s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "max/min")
	for _, name := range sortedKeys(values) {
		xs := values[name]
		med := median(xs)
		q := [3]float64{med, med, med}
		if len(xs) >= 2 {
			q = quartiles(xs)
		}
		spread := (q[2] - q[0]) / med
		ratio := slices.Max(xs) / slices.Min(xs)
		fmt.Printf("%-16s %-4s %12.6g %12.6g %12.6g %8.4f %8.4f\n", name, units[name], q[0], med, q[2], spread, ratio)
		summary[name] = map[string]float64{"q1": q[0], "median": med, "q3": q[2], "spread": spread, "max_over_min": ratio}
	}
	line, err := json.Marshal(map[string]any{"workload": workload, "runs": n, "seconds": seconds, "steadiness": summary})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
