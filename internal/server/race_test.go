//go:build race

package server_test

// The race detector changes what allocates (sync.Pool drops a share of
// Puts on purpose), so allocation counts are not checked under it.
func init() { raceEnabled = true }
