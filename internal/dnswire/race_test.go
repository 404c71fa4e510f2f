//go:build race

package dnswire

// raceEnabled reports a -race build (see alloc_test.go).
const raceEnabled = true
