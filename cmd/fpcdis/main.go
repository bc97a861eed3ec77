// Command fpcdis compiles and links source modules, then prints the
// linked image: the disassembly of every procedure, the module placement
// (global frames, link vectors, entry vectors), and static size figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	fpc "repro"
)

func main() {
	early := flag.Bool("early", false, "early-bind calls to DIRECTCALL/SHORTDIRECTCALL (§6)")
	entry := flag.String("entry", "", "entry point as Module.proc (default <module>.main)")
	verifyFlag := flag.Bool("verify", false, "annotate each instruction with the verifier's stack-depth bounds and print the full report")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: fpcdis [flags] file.fpc ...")
		os.Exit(2)
	}
	sources := map[string]string{}
	firstModule := ""
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
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
	entryModule, entryProc := firstModule, "main"
	if *entry != "" {
		parts := strings.SplitN(*entry, ".", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("bad -entry %q", *entry))
		}
		entryModule, entryProc = parts[0], parts[1]
	}
	mods, err := fpc.Compile(sources)
	if err != nil {
		fatal(err)
	}
	prog, lst, err := fpc.Link(mods, entryModule, entryProc, fpc.LinkOptions{EarlyBind: *early})
	if err != nil {
		fatal(err)
	}
	// The listing always goes through the verifier: a program that fails
	// to decode or verify still prints everything that does decode, then
	// reports the diagnostics and exits non-zero instead of silently
	// truncating the listing.
	rep := fpc.Verify(prog)
	var note func(uint32) string
	if *verifyFlag {
		note = func(pc uint32) string {
			if lo, hi, ok := rep.DepthAt(pc); ok {
				return fmt.Sprintf("  ; depth [%d,%d]", lo, hi)
			}
			return "  ; unreached"
		}
	}
	fmt.Print(prog.DisassembleAnnotated(note))
	fmt.Printf("\ncode bytes %d, link-vector words %d, procedures %d\n",
		lst.CodeBytes, lst.LVWords, lst.ProcCount)
	fmt.Printf("calls: %d external, %d local, %d direct, %d short-direct\n",
		lst.ExternCalls, lst.LocalCalls, lst.DirectCalls, lst.ShortCalls)
	fmt.Printf("instruction lengths: %d one-byte, %d two, %d three, %d four (of %d)\n",
		lst.Lengths.ByLen[1], lst.Lengths.ByLen[2], lst.Lengths.ByLen[3], lst.Lengths.ByLen[4], lst.Lengths.Total)
	if *verifyFlag {
		fmt.Printf("\n%s", rep)
	}
	if !rep.Admitted() {
		for _, d := range rep.Errors() {
			fmt.Fprintln(os.Stderr, "fpcdis:", d)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpcdis:", err)
	os.Exit(1)
}
