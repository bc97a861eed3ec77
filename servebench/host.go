package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// spinSink keeps the calibration loop from being optimized away.
var spinSink uint64

// spinNs times a fixed integer loop 21 times and returns the samples in
// ns. The loop touches no memory, so its time moves only with the host's
// speed: a run whose spin reads slow was taken in a slow host phase.
func spinNs() []float64 {
	out := make([]float64, 0, 21)
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		x := uint64(i)
		for j := 0; j < 20000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink ^= x
		out = append(out, float64(time.Since(t0).Nanoseconds()))
	}
	return out
}

// processCPU is the process's user plus system CPU time so far. A timed
// phase that used less than clients × its wall time was short of CPU.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fingerprint identifies the machine and the code a run measured.
func fingerprint() map[string]any {
	fp := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp["commit"] = s.Value
			}
		}
	}
	if d, err := sourceDigest("."); err == nil {
		fp["source_sha256"] = d
	}
	return fp
}

// sourceDigest hashes every Go source and go.mod under root: the code's
// identity when the checkout carries no commit.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method; xs needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// writeSpans writes the spans the clients kept, one per line, to
// .bench_build/spans/<name>.tsv in the working directory.
func writeSpans(name string, cts []*clientTrace) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\treq\tparent\tlayer\tprobe\tstart_ns\tdur_ns")
	for _, ct := range cts {
		for i, sp := range ct.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%v\t%d\t%d\n", ct.base+int64(i), sp.req, sp.parent, layerNames[sp.layer], sp.probe, sp.start, sp.dur)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
