//go:build race

package registry

func init() { raceEnabled = true }
