// Command fpcd is the serving daemon: it compiles and links a program
// once, loads it into a shared immutable image, and serves procedure
// calls over HTTP from a machine pool with per-request step budgets,
// admission control, and Prometheus metrics.
//
// Usage:
//
//	fpcd [-addr :8080] [-config mesa|fastfetch|fastcalls] [flags] [file.fpc ...]
//
// With no source files it serves a built-in demo module ("serve", with
// fib/spin/forever/echo procedures). Submitted /run programs are cached
// in a content-addressed registry (-cache-budget, -cache-images, -warm)
// and re-invokable by hash via /call/{hash}; per-tenant admission quotas
// (-tenant-inflight, -tenant-queue, -tenant-step-rate) isolate tenants
// keyed by the X-Tenant header. Long runs can be driven incrementally
// through /session: a segment that exhausts its per-segment step budget
// (or its output-backpressure bound) is parked off-machine as a
// continuation — bounded by -session-max, -session-ttl, -session-bytes
// and -session-per-tenant — and resumed with /session/{id}/resume.
// SIGINT/SIGTERM triggers a graceful
// drain: in-flight calls finish, new calls get 503, then the listener
// shuts down.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	fpc "repro"
	"repro/internal/server"
)

// demoSources is the default served program: a fast call (fib, echo), a
// tunable slow call (spin), and a runaway loop (forever) that exists to
// demonstrate the per-request budget cutting it off.
var demoSources = map[string]string{"serve": `
module serve;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc spin(n) {
  var i = 0;
  var acc = 0;
  while (i < n) {
    acc = acc + fib(10);
    i = i + 1;
  }
  return acc & 0x7FFF;
}
proc forever() {
  var i = 0;
  while (1) { i = i + 1; }
  return i;
}
proc echo(x) { return x; }
proc main(n) { return fib(n); }
`}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	configName := flag.String("config", "fastcalls", "machine configuration: mesa (I2), fastfetch (I3), fastcalls (I4)")
	entry := flag.String("entry", "", "entry point as Module.proc (default <module>.main)")
	inflight := flag.Int("inflight", 0, "max concurrently running machines (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queued requests beyond the in-flight limit (0 = 4x in-flight)")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "max wait for a run slot before shedding")
	budget := flag.Uint64("budget", 5_000_000, "default per-request step budget")
	maxBudget := flag.Uint64("max-budget", 50_000_000, "cap on client-requested step budgets")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request wall-clock deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight calls on shutdown")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	verifyFlag := flag.Bool("verify", true, "verify-at-admission: statically verify the served program at startup (fatal if rejected) and every /run submission (400 on rejection, zero budget spent)")
	cacheBudget := flag.Int64("cache-budget", 256<<20, "registry memory budget in bytes for cached program images (LRU beyond it)")
	cacheImages := flag.Int("cache-images", 0, "max resident cached images regardless of bytes (0 = unlimited)")
	warm := flag.Int("warm", 0, "machines pre-booted per cached image (0 = 1, negative = none)")
	tenantInflight := flag.Int("tenant-inflight", 0, "max in-flight+queued requests per tenant (0 = no per-tenant sharding)")
	tenantQueue := flag.Int("tenant-queue", 0, "max requests waiting per tenant beyond its in-flight cap (0 = 2x tenant-inflight)")
	tenantStepRate := flag.Uint64("tenant-step-rate", 0, "per-tenant step quota refill, simulated instructions/second (0 = unlimited)")
	tenantStepBurst := flag.Uint64("tenant-step-burst", 0, "per-tenant step quota bucket cap (0 = 1s of -tenant-step-rate)")
	sessionMax := flag.Int("session-max", 0, "max parked /session continuations, LRU beyond it (0 = 1024)")
	sessionTTL := flag.Duration("session-ttl", 0, "parked session lifetime before expiry (0 = 5m)")
	sessionBytes := flag.Int64("session-bytes", 0, "byte budget for parked continuations, LRU beyond it (0 = unlimited)")
	sessionPerTenant := flag.Int("session-per-tenant", 0, "max parked sessions per tenant (0 = no per-tenant cap)")
	flag.Parse()

	cfg, err := machineConfig(*configName)
	if err != nil {
		fatal(err)
	}
	sources, firstModule := demoSources, "serve"
	if flag.NArg() > 0 {
		sources, firstModule, err = readSources(flag.Args())
		if err != nil {
			fatal(err)
		}
	}
	entryModule, entryProc := firstModule, "main"
	if *entry != "" {
		parts := strings.SplitN(*entry, ".", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("bad -entry %q; want Module.proc", *entry))
		}
		entryModule, entryProc = parts[0], parts[1]
	}

	prog, err := fpc.Build(sources, entryModule, entryProc, fpc.DefaultLinkOptions(cfg))
	if err != nil {
		fatal(err)
	}
	var pool *fpc.Pool
	if *verifyFlag {
		// The daemon's own program goes through the same gate /run
		// submissions will: a program the verifier rejects never serves.
		img, err := fpc.LoadImageVerified(prog, cfg)
		if err != nil {
			fatal(err)
		}
		pool = fpc.NewPoolFromImage(img)
		fmt.Println("fpcd: program verified")
	} else {
		pool, err = fpc.NewPool(prog, cfg)
		if err != nil {
			fatal(err)
		}
	}
	srv := server.New(pool, server.Config{
		MaxInFlight:       *inflight,
		MaxQueue:          *queue,
		QueueTimeout:      *queueTimeout,
		DefaultBudget:     *budget,
		MaxBudget:         *maxBudget,
		RequestTimeout:    *timeout,
		Verify:            *verifyFlag,
		CacheBudget:       *cacheBudget,
		CacheImages:       *cacheImages,
		WarmMachines:      *warm,
		TenantMaxInFlight: *tenantInflight,
		TenantMaxQueue:    *tenantQueue,
		TenantStepRate:    *tenantStepRate,
		TenantStepBurst:   *tenantStepBurst,
		SessionMax:        *sessionMax,
		SessionTTL:        *sessionTTL,
		SessionBytes:      *sessionBytes,
		SessionPerTenant:  *sessionPerTenant,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("fpcd: serving %s.%s on %s (config %s)\n", entryModule, entryProc, *addr, *configName)

	// Profiling stays off the serving listener: the pprof handlers hang off
	// http.DefaultServeMux, which the serving mux never touches, and bind
	// to their own (normally loopback) address.
	if *pprofAddr != "" {
		go func() {
			fmt.Printf("fpcd: pprof on %s\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "fpcd: pprof:", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("fpcd: %v — draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "fpcd: drain:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "fpcd: shutdown:", err)
	}
	runs, _ := srv.Registry().Aggregate()
	fmt.Printf("fpcd: served %d runs, %s, done\n", runs, srv.Registry())
}

func machineConfig(name string) (fpc.Config, error) {
	switch name {
	case "mesa":
		return fpc.ConfigMesa, nil
	case "fastfetch":
		return fpc.ConfigFastFetch, nil
	case "fastcalls":
		return fpc.ConfigFastCalls, nil
	}
	return fpc.Config{}, fmt.Errorf("unknown config %q", name)
}

// readSources loads module sources the same way fpcrun does: one module
// per file, honoring the declared module name.
func readSources(paths []string) (map[string]string, string, error) {
	sources := map[string]string{}
	firstModule := ""
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, "", err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if i := strings.Index(string(data), "module "); i >= 0 {
			rest := string(data)[i+7:]
			if j := strings.IndexAny(rest, "; \n\t"); j > 0 {
				name = strings.TrimSpace(rest[:j])
			}
		}
		if firstModule == "" {
			firstModule = name
		}
		sources[name] = string(data)
	}
	return sources, firstModule, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpcd:", err)
	os.Exit(1)
}
