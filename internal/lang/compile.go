package lang

import (
	"fmt"
	"sort"

	"repro/internal/image"
)

// CompileAll parses, analyzes and generates code for a set of module
// sources (name -> source text). Modules may import each other freely;
// signatures are resolved across the whole set. Modules are returned in
// name order so linking is deterministic.
func CompileAll(sources map[string]string) ([]*image.Module, error) {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := checkSourceSize(names, sources); err != nil {
		return nil, err
	}
	var files []*File
	for _, n := range names {
		f, err := Parse(n, sources[n])
		if err != nil {
			return nil, err
		}
		if f.Name != n {
			return nil, fmt.Errorf("lang: source %q declares module %q", n, f.Name)
		}
		files = append(files, f)
	}
	prog, err := Analyze(files)
	if err != nil {
		return nil, err
	}
	var mods []*image.Module
	for _, f := range files {
		m, err := prog.Generate(f)
		if err != nil {
			return nil, err
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}
	return mods, nil
}

// Compile compiles a single self-contained module.
func Compile(name, source string) (*image.Module, error) {
	mods, err := CompileAll(map[string]string{name: source})
	if err != nil {
		return nil, err
	}
	return mods[0], nil
}

// ParseAll parses a set of sources and analyzes them, returning the
// Program (for the reference interpreter, which walks the AST directly).
func ParseAll(sources map[string]string) (*Program, error) {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := checkSourceSize(names, sources); err != nil {
		return nil, err
	}
	var files []*File
	for _, n := range names {
		f, err := Parse(n, sources[n])
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return Analyze(files)
}

// checkSourceSize rejects a submission whose sources add up to more than
// maxSourceBytes before any of them is lexed.
func checkSourceSize(names []string, sources map[string]string) error {
	total, largest := 0, ""
	for _, n := range names {
		total += len(sources[n])
		if largest == "" || len(sources[n]) > len(sources[largest]) {
			largest = n
		}
	}
	if total > maxSourceBytes {
		return fmt.Errorf("lang: sources add up to %d bytes, over the %d-byte limit (largest: module %s, %d bytes)",
			total, maxSourceBytes, largest, len(sources[largest]))
	}
	return nil
}

// File returns the parsed file of the named module, or nil.
func (p *Program) File(name string) *File {
	for _, f := range p.Files {
		if f.Name == name {
			return f
		}
	}
	return nil
}
