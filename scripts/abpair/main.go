// Command abpair compares one benchmark between a base revision and the
// working tree in alternating pairs of runs. It checks the base revision
// out with git worktree add into a temporary directory (no network),
// builds the root package's test binary in both trees and runs the named
// benchmark in -n pairs. Each pair runs in ABBA order, the leading side
// first and last, and a side's value is the mean of its two runs, so a
// drift across the pair or a penalty on whichever binary runs second falls
// on both sides alike; which side leads alternates between pairs. It
// prints every pair, each side's median and interquartile range, the median
// of the paired change/base ratios and the change's win count. It reads a
// gain only when the change wins at least nine tenths of the pairs and the
// medians differ by more than the base's interquartile range, the rule
// the servebench claims use.
//
//	go run ./scripts/abpair -base HEAD~1 -bench 'BenchmarkEngineMix$' -n 10
//
// Each run uses go test's default benchtime and compares ns/op, lower
// being better. When -bench matches several benchmarks (sub-benchmarks
// included), a run's value is the sum of their ns/op: for
// BenchmarkEngineMix, the time of one call of every program. -overlay
// copies files from the working tree into the base checkout before it is
// built, so a benchmark the change adds can time the base too; the
// overlaid files must compile against the base's API.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metric is the benchmark unit compared; lower is better.
const metric = "ns/op"

func main() {
	var (
		base    = flag.String("base", "", "base revision (required)")
		bench   = flag.String("bench", "", "benchmark regexp, as for go test -bench (required)")
		n       = flag.Int("n", 10, "number of pairs")
		cpu     = flag.String("cpu", "", "go test -cpu list for both sides (default: GOMAXPROCS)")
		overlay = flag.String("overlay", "", "comma-separated repository paths copied from the working tree into the base checkout")
	)
	flag.Parse()
	if *base == "" || *bench == "" || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *base, *bench, *n, *cpu, *overlay); err != nil {
		fmt.Fprintln(os.Stderr, "abpair:", err)
		os.Exit(1)
	}
}

type side struct {
	name string
	root string // repository root of this side's tree
	bin  string // its test binary
}

func run(ctx context.Context, base, bench string, n int, cpu, overlay string) error {
	top, err := output(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	root := strings.TrimSpace(top)
	tmp, err := os.MkdirTemp("", "abpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if _, err := output(ctx, root, "git", "worktree", "add", "--detach", baseDir, base); err != nil {
		return err
	}
	defer func() {
		// Not ctx: the worktree must go even after an interrupt.
		if out, err := exec.Command("git", "-C", root, "worktree", "remove", "--force", baseDir).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "abpair: removing the worktree %s: %v\n%s", baseDir, err, out)
		}
	}()
	for _, f := range strings.Split(overlay, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(baseDir, f), data, 0o644); err != nil {
			return err
		}
	}

	sides := []*side{{name: "base", root: baseDir}, {name: "change", root: root}}
	for _, s := range sides {
		s.bin = filepath.Join(tmp, s.name+".test")
		if _, err := output(ctx, s.root, "go", "test", "-c", "-o", s.bin, "."); err != nil {
			return fmt.Errorf("building %s: %w", s.name, err)
		}
	}

	args := []string{"-test.run=^$", "-test.bench=" + bench, "-test.timeout=1h"}
	if cpu != "" {
		args = append(args, "-test.cpu="+cpu)
	}
	fmt.Printf("base %s, change: working tree of %s\nbench %s, metric %s, %d pairs\n\n", base, root, bench, metric, n)
	fmt.Printf("%-5s %-7s %14s %14s %12s\n", "pair", "leads", "base", "change", "change/base")
	vals := [2][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		lead, other := i%2, 1-i%2
		for _, j := range []int{lead, other, other, lead} {
			s := sides[j]
			out, err := output(ctx, s.root, s.bin, args...)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", s.name, i+1, err)
			}
			v, err := parse(out)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", s.name, i+1, err)
			}
			vals[j][i] += v / 2
		}
		fmt.Printf("%-5d %-7s %14.1f %14.1f %12.4f\n", i+1, sides[lead].name, vals[0][i], vals[1][i], vals[1][i]/vals[0][i])
	}

	ratios := make([]float64, n)
	wins := 0
	for i := range ratios {
		ratios[i] = vals[1][i] / vals[0][i]
		if vals[1][i] < vals[0][i] {
			wins++
		}
	}
	fmt.Println()
	for j, s := range sides {
		q1, med, q3 := quartiles(vals[j])
		fmt.Printf("%-7s median %.1f %s, IQR %.1f (q1 %.1f, q3 %.1f)\n", s.name, med, metric, q3-q1, q1, q3)
	}
	_, rmed, _ := quartiles(ratios)
	need := int(math.Ceil(0.9 * float64(n)))
	q1, bmed, q3 := quartiles(vals[0])
	_, cmed, _ := quartiles(vals[1])
	fmt.Printf("paired change/base median %.4f; change wins %d of %d (a gain needs %d)\n", rmed, wins, n, need)
	verdict := "no gain"
	if wins >= need && bmed-cmed > q3-q1 {
		verdict = "gain"
	}
	fmt.Printf("medians differ by %.1f, base IQR %.1f: %s\n", bmed-cmed, q3-q1, verdict)
	return nil
}

// output runs a command in dir and returns its standard output; on failure
// the error carries the command's combined output.
func output(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s%s", name, strings.Join(args, " "), err, stdout.String(), stderr.String())
	}
	return stdout.String(), nil
}

// parse sums metric over every benchmark result line of a go test -bench
// output.
func parse(out string) (float64, error) {
	var sum float64
	found := false
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		for k := 3; k < len(f); k++ {
			if f[k] != metric {
				continue
			}
			v, err := strconv.ParseFloat(f[k-1], 64)
			if err != nil {
				return 0, fmt.Errorf("%q: %w", sc.Text(), err)
			}
			sum += v
			found = true
		}
	}
	if !found {
		return 0, fmt.Errorf("no %s in the benchmark output:\n%s", metric, out)
	}
	return sum, nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
